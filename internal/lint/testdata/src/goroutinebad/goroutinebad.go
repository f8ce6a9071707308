// Package goroutinebad exercises the goroutine analyzer's join/capture
// checks: every spawn needs a visible join or cancellation path, and loop
// variables are passed, not captured. Loaded under its one-element fixture
// path it is in scope; loaded under a cmd/ path it is not.
package goroutinebad

import (
	"context"
	"sync"
)

func work() {}

func sink(int) {}

// Joined follows the Add-before-spawn, deferred-Done discipline.
func Joined(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// Captures references the loop variable inside the body instead of passing
// it as an argument.
func Captures(xs []int) {
	var wg sync.WaitGroup
	for _, v := range xs {
		wg.Add(1)
		go func() { // want:goroutine
			defer wg.Done()
			sink(v)
		}()
	}
	wg.Wait()
}

// Unjoined spawns fire-and-forget work: completion ordering is a race.
func Unjoined() {
	go func() { // want:goroutine
		work()
	}()
}

// DoneWithoutAdd pairs Done with no visible Add before the spawn: an Add
// issued after the spawn races Wait.
func DoneWithoutAdd(wg *sync.WaitGroup) {
	go func() { // want:goroutine
		defer wg.Done()
		work()
	}()
}

// ChannelJoined signals completion by closing a channel the spawner waits
// on.
func ChannelJoined() {
	done := make(chan struct{})
	go func() {
		work()
		close(done)
	}()
	<-done
}

// CtxCancelled is owned by a context: the spawner can cancel it.
func CtxCancelled(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}

// Resolved spawns a named local closure: the dataflow engine sees through
// the binding to the literal's channel send.
func Resolved() int {
	ch := make(chan int, 1)
	emit := func() { ch <- 42 }
	go emit()
	return <-ch
}

// Opaque spawns a function the analyzer cannot see into, with no Add
// before the spawn.
func Opaque() {
	go work() // want:goroutine
}
