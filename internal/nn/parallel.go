package nn

import (
	"context"
	"fmt"
	"sync"
)

// ParallelForCtx runs fn(i) for every i in [0, n) on a fixed pool of workers
// goroutines pulling indices from a shared channel — a bounded fan-out that
// never spawns more than workers goroutines no matter how large n is (the
// goroutine-per-item pattern does, and DowBJ-scale inputs have tens of
// thousands of trips). workers <= 1 (or n <= 1) runs inline, preserving the
// exact serial execution order. fn must be safe to call concurrently for
// distinct i; iterations must not depend on each other.
//
// Cancellation is cooperative: each worker checks ctx before starting the
// next index and stops pulling once ctx is done, so the call returns after
// at most one in-flight fn per worker. The returned error is ctx.Err() when
// the context was cancelled (some indices then never ran), nil otherwise.
func ParallelForCtx(ctx context.Context, workers, n int, fn func(i int)) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		done := ctx.Done()
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			fn(i)
		}
		return nil
	}
	idx := make(chan int, n)
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	done := ctx.Done()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// DataParallel coordinates data-parallel training over worker-local
// parameter replicas: each worker runs forward/backward against its own
// copy of the parameters (so concurrent Backward calls never touch shared
// tensors), then Reduce folds the workers' accumulated gradients into the
// master parameters in worker order — a deterministic reduction — and Sync
// re-broadcasts the master data after the optimizer step.
//
// Combined with RunCtx's static sample sharding and per-worker seeded RNGs,
// training with a fixed worker count is reproducible run to run; only the
// floating-point summation order differs from the serial path. With no
// replicas the master is the one worker: Sync and Reduce do nothing and
// RunCtx calls fn(0, i) inline in index order — the serial path itself.
type DataParallel struct {
	master   []*Tensor
	replicas [][]*Tensor
}

// NewDataParallel wires master parameters to position-aligned replica
// parameter slices (one per worker). Every replica must have the same
// number, order and sizes of tensors as master.
func NewDataParallel(master []*Tensor, replicas ...[]*Tensor) *DataParallel {
	for w, rep := range replicas {
		if len(rep) != len(master) {
			panic(fmt.Sprintf("nn: replica %d has %d params, master has %d", w, len(rep), len(master)))
		}
		for i, p := range rep {
			if len(p.Data) != len(master[i].Data) {
				panic(fmt.Sprintf("nn: replica %d param %d size %d, master %d",
					w, i, len(p.Data), len(master[i].Data)))
			}
		}
	}
	return &DataParallel{master: master, replicas: replicas}
}

// Sync copies the master parameter data into every replica. Call after each
// optimizer step (and once before training starts).
func (dp *DataParallel) Sync() {
	for _, rep := range dp.replicas {
		for i, p := range rep {
			copy(p.Data, dp.master[i].Data)
		}
	}
}

// Reduce accumulates every replica's gradients into the master gradients —
// summed in worker order, so the result is independent of goroutine
// scheduling — and zeroes the replica gradients for the next batch.
func (dp *DataParallel) Reduce() {
	for i, mp := range dp.master {
		for _, rep := range dp.replicas {
			rg := rep[i].Grad
			if rg == nil {
				continue
			}
			mp.ensureGrad()
			for j, g := range rg {
				mp.Grad[j] += g
			}
		}
	}
	for _, rep := range dp.replicas {
		ZeroGrads(rep)
	}
}

// RunCtx shards the indices [0, n) statically across the workers — worker w
// handles i = w, w+W, w+2W, ... — and executes fn(worker, i) concurrently,
// one goroutine per worker. The static assignment keeps each worker's
// sample set (and therefore its RNG consumption and gradient sum) fixed for
// a given worker count, which is what makes parallel training reproducible.
// Every worker checks ctx before each index and abandons its remaining
// shard once ctx is done; RunCtx then returns ctx.Err() — the accumulated
// gradients are incomplete and the caller must not step the optimizer with
// them.
func (dp *DataParallel) RunCtx(ctx context.Context, n int, fn func(worker, i int)) error {
	w := len(dp.replicas)
	done := ctx.Done()
	if w <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			fn(0, i)
		}
		return nil
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(k int) {
			defer wg.Done()
			for i := k; i < n; i += w {
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				fn(k, i)
			}
		}(k)
	}
	wg.Wait()
	return ctx.Err()
}
