package core

import "sync"

// runTasks executes tasks 0..n-1 with at most parallelism of them in flight
// at once. Tasks must write their results into caller-owned, index-disjoint
// slots — the pool imposes no ordering, so any merge that depends on order
// must happen afterwards, over the slots, in index order.
//
// min(parallelism, n) workers take indices in increasing order, one at a
// time, so the fan-out costs a fixed set of goroutines rather than one per
// task. Error semantics match a serial loop as closely as concurrency
// allows: once any task's failure has been observed, no worker takes
// another index, and after the tasks in flight drain the error of the
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

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		next     int
		firstIdx = n
		firstErr error
	)
	work := func() {
		defer wg.Done()
		for {
			mu.Lock()
			if next == n || firstIdx < n {
				mu.Unlock()
				return
			}
			i := next
			next++
			mu.Unlock()
			if err := task(i); err != nil {
				mu.Lock()
				if i < firstIdx {
					firstIdx, firstErr = i, err
				}
				mu.Unlock()
			}
		}
	}
	workers := min(parallelism, n)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go work()
	}
	wg.Wait()
	return firstErr
}
