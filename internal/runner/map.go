package runner

import (
	"context"
	"sync"
)

// Map fans f(0..n-1) out over the given number of workers and returns the
// results in index order. It is the generic sibling of Run for work that
// is not a simulation job — e.g. running whole experiment functions
// concurrently. The first error encountered (in index order) is returned
// alongside the full result slice; slots whose f was skipped due to
// cancellation hold the zero value and the context error is returned.
func Map[T any](ctx context.Context, n, workers int, f func(i int) (T, error)) ([]T, error) {
	workers = poolSize(workers, n)
	results := make([]T, n)
	errs := make([]error, n)
	indices := make(chan int)
	go func() {
		defer close(indices)
		for i := 0; i < n; i++ {
			select {
			case indices <- i:
			case <-ctx.Done():
				for j := i; j < n; j++ {
					errs[j] = ctx.Err()
				}
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				results[i], errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
