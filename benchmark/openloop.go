package main

import (
	"context"
	"time"
)

// clock is the time source of the open-loop generator; tests replace it.
type clock interface {
	Now() time.Time
	// SleepUntil blocks until t or until ctx is done.
	SleepUntil(ctx context.Context, t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
	case <-ctx.Done():
	}
}

// openLoop sends op i at start + i·interval for every due time before
// deadline, never skipping one: when an op overruns, the next is sent as
// soon as it returns. op receives its due time and times itself from
// it, not from when it was sent, so a stall also charges the wait it
// imposes on the ops queued behind it. openLoop returns each op's
// lateness: how far behind its schedule the generator sent it. It stops
// scheduling when stop is done; an op already sent runs to completion.
func openLoop(stop context.Context, clk clock, start time.Time, interval time.Duration, deadline time.Time, op func(i int, due time.Time)) []time.Duration {
	var late []time.Duration
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(deadline) || stop.Err() != nil {
			return late
		}
		clk.SleepUntil(stop, due)
		if stop.Err() != nil {
			return late
		}
		late = append(late, clk.Now().Sub(due))
		op(i, due)
	}
}
