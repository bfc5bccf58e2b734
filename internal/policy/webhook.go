package policy

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dqm/internal/metrics"
)

// DispatcherConfig tunes the shared webhook delivery plane.
type DispatcherConfig struct {
	// QueueSize bounds the pending-delivery queue; enqueues beyond it are
	// dropped and counted as dead letters (a slow receiver must not back up
	// into gate evaluation). Default 256.
	QueueSize int
	// Workers is the delivery concurrency. Default 2.
	Workers int
	// MaxAttempts bounds attempts per delivery (1 = no retries). Default 3.
	MaxAttempts int
	// BaseBackoff is the first retry delay; it doubles per attempt up to
	// MaxBackoff. Defaults 100ms / 5s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Timeout bounds one HTTP attempt. Default 5s.
	Timeout time.Duration
	// Client overrides the HTTP client (tests). Default http.DefaultClient
	// with per-attempt context timeouts.
	Client *http.Client
}

func (c *DispatcherConfig) withDefaults() DispatcherConfig {
	out := *c
	if out.QueueSize <= 0 {
		out.QueueSize = 256
	}
	if out.Workers <= 0 {
		out.Workers = 2
	}
	if out.MaxAttempts <= 0 {
		out.MaxAttempts = 3
	}
	if out.BaseBackoff <= 0 {
		out.BaseBackoff = 100 * time.Millisecond
	}
	if out.MaxBackoff <= 0 {
		out.MaxBackoff = 5 * time.Second
	}
	if out.Timeout <= 0 {
		out.Timeout = 5 * time.Second
	}
	if out.Client == nil {
		out.Client = http.DefaultClient
	}
	return out
}

// Delivery is one webhook POST: the pre-serialized decision document and the
// per-policy delivery overrides.
type Delivery struct {
	URL  string
	Body []byte
	// Timeout and MaxAttempts override the dispatcher defaults when positive.
	Timeout     time.Duration
	MaxAttempts int
}

// Dispatcher is the bounded asynchronous webhook delivery plane shared by
// every gate in a server. Deliveries are fire-and-forget from the gate's
// perspective: the pump enqueues and returns; workers POST with retry and
// exponential backoff; exhausted or overflowed deliveries become dead
// letters (counted, never blocking).
type Dispatcher struct {
	cfg   DispatcherConfig
	queue chan Delivery
	// ctx is the parent of every attempt; Close cancels it, so a receiver
	// that never answers cannot hold shutdown for its policy's timeout.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	deliveries  atomic.Int64
	deadLetters atomic.Int64
	closeOnce   sync.Once
}

// NewDispatcher starts the worker pool.
func NewDispatcher(cfg DispatcherConfig) *Dispatcher {
	d := &Dispatcher{cfg: cfg.withDefaults()}
	d.ctx, d.cancel = context.WithCancel(context.Background())
	d.queue = make(chan Delivery, d.cfg.QueueSize)
	d.wg.Add(d.cfg.Workers)
	for i := 0; i < d.cfg.Workers; i++ {
		go d.worker()
	}
	return d
}

// Enqueue submits a delivery. It never blocks: a full queue drops the
// delivery, counts a dead letter, and returns false.
func (d *Dispatcher) Enqueue(del Delivery) bool {
	select {
	case d.queue <- del:
		return true
	default:
		d.deadLetters.Add(1)
		metricWebhookFailures.Inc()
		return false
	}
}

// Deliveries returns the count of successful deliveries.
func (d *Dispatcher) Deliveries() int64 { return d.deliveries.Load() }

// DeadLetters returns the count of deliveries abandoned after exhausting
// retries or dropped on a full queue.
func (d *Dispatcher) DeadLetters() int64 { return d.deadLetters.Load() }

// Close cancels in-flight attempts and waits for the workers to exit. An
// abandoned attempt and the deliveries still queued count as neither
// deliveries nor dead letters (shutdown, not failure).
func (d *Dispatcher) Close() {
	d.closeOnce.Do(func() {
		d.cancel()
		d.wg.Wait()
	})
}

func (d *Dispatcher) worker() {
	defer d.wg.Done()
	for {
		// select picks at random among ready cases, so a worker checks for
		// Close before it may take another delivery off a non-empty queue.
		if d.ctx.Err() != nil {
			return
		}
		select {
		case <-d.ctx.Done():
			return
		case del := <-d.queue:
			d.deliver(del)
		}
	}
}

func (d *Dispatcher) deliver(del Delivery) {
	attempts := del.MaxAttempts
	if attempts <= 0 {
		attempts = d.cfg.MaxAttempts
	}
	timeout := del.Timeout
	if timeout <= 0 {
		timeout = d.cfg.Timeout
	}
	backoff := d.cfg.BaseBackoff
	for attempt := 1; ; attempt++ {
		start := time.Now()
		ok := d.attempt(del.URL, del.Body, timeout)
		if !ok && d.ctx.Err() != nil {
			return // abandoned by Close
		}
		metricWebhookDeliverySeconds.Observe(time.Since(start).Seconds())
		if ok {
			d.deliveries.Add(1)
			metricWebhookDeliveries.Inc()
			return
		}
		if attempt >= attempts {
			d.deadLetters.Add(1)
			metricWebhookFailures.Inc()
			return
		}
		metricWebhookRetries.Inc()
		select {
		case <-d.ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > d.cfg.MaxBackoff {
			backoff = d.cfg.MaxBackoff
		}
	}
}

func (d *Dispatcher) attempt(url string, body []byte, timeout time.Duration) bool {
	ctx, cancel := context.WithTimeout(d.ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	return resp.StatusCode >= 200 && resp.StatusCode < 300
}

// metricWebhookDeliverySeconds lives here rather than metrics.go so the
// histogram's bucket choice sits next to the code that observes it.
var metricWebhookDeliverySeconds = metrics.Default.Histogram(
	"dqm_webhook_delivery_seconds",
	"Latency of webhook delivery attempts.",
	metrics.DurationBuckets,
)
