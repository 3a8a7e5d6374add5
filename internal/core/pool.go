package core

import "sync"

// runTasks executes tasks 0..n-1 with at most parallelism of them in flight
// at once. Tasks must write their results into caller-owned, index-disjoint
// slots — the pool imposes no ordering, so any merge that depends on order
// must happen afterwards, over the slots, in index order.
//
// min(parallelism, n) workers take indices in increasing order, one at a
// time, and the caller is one of them: the fan-out starts
// min(parallelism, n)-1 goroutines and the caller works until no index is
// left, then waits for the others, rather than parking while they run.
// Error semantics match a serial loop as closely as concurrency allows:
// once any task's failure has been observed, no worker takes another
// index, and after the tasks in flight drain the error of the
// lowest-indexed failed task is returned (so the reported error does not
// depend on goroutine completion order).
func runTasks(parallelism, n int, task func(i int) error) error {
	if parallelism < 1 {
		parallelism = 1
	}
	if parallelism == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := task(i); err != nil {
				return err
			}
		}
		return nil
	}
	p := &taskPool{n: n, firstIdx: n, task: task}
	helpers := min(parallelism, n) - 1
	p.wg.Add(helpers)
	work := p.work // one method value shared by every goroutine
	for w := 0; w < helpers; w++ {
		go work()
	}
	p.take()
	p.wg.Wait()
	return p.firstErr
}

// taskPool is the shared state of one runTasks fan-out.
type taskPool struct {
	wg       sync.WaitGroup
	mu       sync.Mutex
	next     int // the lowest index no worker has taken
	n        int
	firstIdx int // the lowest failed index seen so far; n when none
	firstErr error
	task     func(i int) error
}

// work is a helper goroutine's body.
func (p *taskPool) work() {
	defer p.wg.Done()
	p.take()
}

// take runs tasks, taking indices in increasing order, until none is left
// or a failure has been observed.
func (p *taskPool) take() {
	for {
		p.mu.Lock()
		if p.next == p.n || p.firstIdx < p.n {
			p.mu.Unlock()
			return
		}
		i := p.next
		p.next++
		p.mu.Unlock()
		if err := p.task(i); err != nil {
			p.mu.Lock()
			if i < p.firstIdx {
				p.firstIdx, p.firstErr = i, err
			}
			p.mu.Unlock()
		}
	}
}
