package main

import (
	"fmt"
	"sync"
	"time"

	"kstreams/kafka"
)

// emptyPollSleep is how long a reader waits after an empty poll: Poll
// returns at once rather than long-polling, and spinning would take a
// CPU from the system under test on a 2-CPU host.
const emptyPollSleep = 250 * time.Microsecond

// poll is Consumer.Poll inside a root span carrying the record count.
func poll(c *kafka.Consumer, tr *tracer) ([]kafka.Message, error) {
	sp := tr.begin("Consumer.Poll", 0)
	msgs, err := c.Poll()
	tr.end(sp, len(msgs))
	return msgs, err
}

// tail is the reader goroutine: it polls until stopped, hands every batch
// to observe under its lock, and signals when a target is reached.
type tail struct {
	cons *kafka.Consumer
	tr   *tracer

	mu      sync.Mutex
	observe func(msgs []kafka.Message, now time.Time)
	reached func() bool // the current target; nil when none
	done    chan struct{}
	doneAt  time.Time
	err     error

	stop   chan struct{}
	exited chan struct{}
}

func startTail(cons *kafka.Consumer, tr *tracer, observe func([]kafka.Message, time.Time)) *tail {
	t := &tail{cons: cons, tr: tr, observe: observe, stop: make(chan struct{}), exited: make(chan struct{})}
	go t.run()
	return t
}

func (t *tail) run() {
	defer close(t.exited)
	for {
		select {
		case <-t.stop:
			return
		default:
		}
		msgs, err := poll(t.cons, t.tr)
		now := time.Now()
		if err != nil {
			t.mu.Lock()
			t.err = err
			t.mu.Unlock()
			return
		}
		if len(msgs) == 0 {
			time.Sleep(emptyPollSleep)
			continue
		}
		t.mu.Lock()
		t.observe(msgs, now)
		t.check(now)
		t.mu.Unlock()
	}
}

// check fires the pending target; t.mu must be held.
func (t *tail) check(now time.Time) {
	if t.reached != nil && t.reached() {
		t.reached = nil
		t.doneAt = now
		close(t.done)
	}
}

// await blocks until reached holds for what the reader has seen, and
// returns when the batch that satisfied it arrived.
func (t *tail) await(reached func() bool, timeout time.Duration) (time.Time, error) {
	t.mu.Lock()
	t.reached, t.done = reached, make(chan struct{})
	done := t.done
	t.check(time.Now())
	t.mu.Unlock()
	select {
	case <-done:
		t.mu.Lock()
		defer t.mu.Unlock()
		return t.doneAt, nil
	case <-t.exited:
		t.mu.Lock()
		defer t.mu.Unlock()
		return time.Time{}, fmt.Errorf("reader stopped: %v", t.err)
	case <-time.After(timeout):
		t.mu.Lock()
		defer t.mu.Unlock()
		t.reached = nil
		return time.Time{}, fmt.Errorf("reader did not see the complete result within %v", timeout)
	}
}

// close stops the reader, waits for it to exit and closes its consumer.
func (t *tail) close() error {
	close(t.stop)
	<-t.exited
	t.cons.Close()
	return t.err
}

// readAll is one catch-up pass: poll a fresh consumer until want records
// arrived, handing each batch to observe, and return the elapsed time
// from the consumer's creation.
func readAll(c *kafka.Cluster, topic string, parts int32, iso kafka.Isolation, want int64, tr *tracer,
	observe func([]kafka.Message)) (time.Duration, error) {
	start := time.Now()
	cons := c.NewConsumer(kafka.ConsumerConfig{Isolation: iso})
	defer cons.Close()
	cons.Assign(topic, partitionList(parts)...)
	deadline := start.Add(catchupTimeout)
	var got int64
	for got < want {
		msgs, err := poll(cons, tr)
		if err != nil {
			return 0, err
		}
		if len(msgs) == 0 {
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("catch-up read %d of %d records", got, want)
			}
			time.Sleep(emptyPollSleep)
			continue
		}
		got += int64(len(msgs))
		observe(msgs)
	}
	return time.Since(start), nil
}

const catchupTimeout = 60 * time.Second

func partitionList(n int32) []int32 {
	ps := make([]int32, n)
	for i := range ps {
		ps[i] = int32(i)
	}
	return ps
}
