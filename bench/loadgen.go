package main

import (
	"math/rand"
	"sync"
	"syscall"
	"time"
)

// arrival is one scheduled request of an open loop: when it is due, as an
// offset from the start of the phase, and which item of the population it
// asks for.
type arrival struct {
	Due  time.Duration
	Item int
}

// poissonSchedule draws arrivals with exponential gaps at rate per second
// until dur has passed; pick chooses each arrival's item. The schedule
// depends only on rng, so a seed fixes it.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration, pick func() int) []arrival {
	var out []arrival
	for t := rng.ExpFloat64() / rate; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
		out = append(out, arrival{Due: time.Duration(t * float64(time.Second)), Item: pick()})
	}
	return out
}

// zipfPicker draws ranks 0..n-1 with probability proportional to
// (1+rank)^-s.
func zipfPicker(rng *rand.Rand, s float64, n int) func() int {
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

type outcome uint8

const (
	outcomeOK outcome = iota
	// outcomeShed marks an arrival that found the in-flight limit reached
	// and was never sent. It is a failure.
	outcomeShed
	outcomeError
)

// openSample is what happened to one arrival.
type openSample struct {
	Item int
	// Late is how long after its due time the generator got to the arrival.
	Late time.Duration
	// Latency runs from the due time, not the send time, so a stall that
	// delays later arrivals is charged to them. Zero for a shed arrival.
	Latency time.Duration
	Outcome outcome
}

// openLoop sends a schedule regardless of how fast replies come back, with
// at most MaxInflight requests outstanding.
type openLoop struct {
	MaxInflight int
	// sleepUntil blocks until off has passed since start. Tests replace it
	// to inject a generator stall.
	sleepUntil func(start time.Time, off time.Duration)
}

// sleepUntil sleeps in the kernel, not in the Go runtime: time.Sleep wakes
// through epoll_wait, whose timeout is whole milliseconds, and on the sizing
// host that alone made the generator 1.0 ms late at p95; nanosleep is 0.1 ms
// late. A signal (the runtime preempts with them) ends nanosleep early, so
// it is called until the time has come.
func sleepUntil(start time.Time, off time.Duration) {
	for d := time.Until(start.Add(off)); d > 0; d = time.Until(start.Add(off)) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// run plays the schedule, calling do for each sent arrival on its own
// goroutine; do reports whether the request succeeded. It returns once
// every sent request has finished.
func (l openLoop) run(sched []arrival, do func(i int, a arrival, due time.Time) bool) []openSample {
	wait := l.sleepUntil
	if wait == nil {
		wait = sleepUntil
	}
	samples := make([]openSample, len(sched))
	sem := make(chan struct{}, l.MaxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		wait(start, a.Due)
		due := start.Add(a.Due)
		s := &samples[i]
		s.Item, s.Late = a.Item, time.Since(due)
		select {
		case sem <- struct{}{}:
		default:
			s.Outcome = outcomeShed
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			good := do(i, a, due)
			s.Latency = time.Since(due)
			if !good {
				s.Outcome = outcomeError
			}
			<-sem
		}()
	}
	wg.Wait()
	return samples
}

// openSummary condenses a phase's samples. Percentiles are over the
// requests that succeeded; every other arrival counts as failed and as
// missing the latency limit.
type openSummary struct {
	Sent, OK, Failed int
	// LatMS and LateMS are ascending, in milliseconds.
	LatMS, LateMS []float64
	// WithinLimit counts successes whose latency from due time met limit.
	WithinLimit int
}

func summarise(samples []openSample, limit time.Duration) openSummary {
	sum := openSummary{Sent: len(samples)}
	var lat, late []time.Duration
	for _, s := range samples {
		late = append(late, s.Late)
		if s.Outcome != outcomeOK {
			sum.Failed++
			continue
		}
		sum.OK++
		lat = append(lat, s.Latency)
		if s.Latency <= limit {
			sum.WithinLimit++
		}
	}
	sum.LatMS, sum.LateMS = sortedMS(lat), sortedMS(late)
	return sum
}
