package runner

import "context"

// Map runs f(0..n-1) on the same pool as Run and returns the results in
// index order. It is the generic sibling of Run for work that is not a
// simulation job — e.g. running whole experiment functions concurrently.
// The first error in index order is returned alongside the full result
// slice. When ctx is cancelled, indices not yet started keep the zero
// value and fail with the context's error.
func Map[T any](ctx context.Context, n, workers int, f func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	pool(n, workers, func() func(int) {
		return func(i int) {
			if errs[i] = ctx.Err(); errs[i] == nil {
				results[i], errs[i] = f(i)
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
