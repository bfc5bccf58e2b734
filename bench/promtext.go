package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// scrape is one parsed /metrics exposition: series key → value. A key is
// the metric name plus its labels sorted by name, e.g.
// `dqm_http_request_seconds_sum{route="votes"}`, so lookups do not depend
// on the order the server prints labels in.
type scrape map[string]float64

// parseProm parses the Prometheus text format (comments, and series lines of
// the form `name{label="v",...} value`). Timestamps are not used by the
// server and are rejected.
func parseProm(text []byte) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: bad value: %q", n, line)
		}
		key, err := canonicalKey(strings.TrimSpace(line[:sp]))
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", n, err)
		}
		out[key] = v
	}
	return out, sc.Err()
}

// canonicalKey sorts a series' labels by name.
func canonicalKey(series string) (string, error) {
	open := strings.IndexByte(series, '{')
	if open < 0 {
		return series, nil
	}
	if !strings.HasSuffix(series, "}") {
		return "", fmt.Errorf("unterminated labels in %q", series)
	}
	labels, err := splitLabels(series[open+1 : len(series)-1])
	if err != nil {
		return "", fmt.Errorf("%v in %q", err, series)
	}
	sort.Strings(labels)
	return key(series[:open], labels...), nil
}

// splitLabels splits `a="x",b="y"` into its `name="value"` pairs, honouring
// backslash escapes inside values.
func splitLabels(s string) ([]string, error) {
	var out []string
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("bad label")
		}
		i := eq + 2
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' {
				i++
			}
		}
		if i >= len(s) {
			return nil, fmt.Errorf("unterminated label value")
		}
		out = append(out, s[:i+1])
		s = strings.TrimPrefix(s[i+1:], ",")
	}
	return out, nil
}

// key builds a canonical series key; labels are `name="value"` pairs in
// name order.
func key(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	return name + "{" + strings.Join(labels, ",") + "}"
}

// delta returns after minus before for every series of after. A series the
// earlier scrape lacks counts from zero (a counter born in between).
func (after scrape) delta(before scrape) scrape {
	d := make(scrape, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// ratio returns num/den over series keys, NaN when either is missing or the
// denominator is zero. NaN marks a layer metric as absent: a renamed or
// removed series is not a failure of the workload.
func (s scrape) ratio(num, den string) float64 {
	n, ok1 := s[num]
	d, ok2 := s[den]
	if !ok1 || !ok2 || d == 0 {
		return math.NaN()
	}
	return n / d
}

// histMean is a histogram's mean over a delta: _sum / _count.
func (s scrape) histMean(name string, labels ...string) float64 {
	return s.ratio(key(name+"_sum", labels...), key(name+"_count", labels...))
}
