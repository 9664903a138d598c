package nn

import (
	"context"
	"sync/atomic"
	"testing"
)

func TestParallelForCtxRunsAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 100} {
		var n int64
		hit := make([]int32, 57)
		if err := ParallelForCtx(context.Background(), workers, len(hit), func(i int) {
			atomic.AddInt64(&n, 1)
			atomic.AddInt32(&hit[i], 1)
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n != int64(len(hit)) {
			t.Fatalf("workers=%d: ran %d of %d indices", workers, n, len(hit))
		}
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestParallelForCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var n int64
		err := ParallelForCtx(ctx, workers, 1000, func(i int) { atomic.AddInt64(&n, 1) })
		if err != context.Canceled {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if n != 0 {
			t.Fatalf("workers=%d: %d iterations ran on a pre-cancelled context", workers, n)
		}
	}
}

func TestParallelForCtxCancelMidway(t *testing.T) {
	const workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	var n, late int64
	var cancelled atomic.Bool
	err := ParallelForCtx(ctx, workers, 10000, func(i int) {
		if cancelled.Load() {
			atomic.AddInt64(&late, 1)
		}
		if atomic.AddInt64(&n, 1) == 8 {
			cancel()
			cancelled.Store(true)
		}
	})
	if err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// Calls already running when cancel() returns may finish, and a worker
	// that checked ctx just before may start one more; no worker starts a
	// second. (Calls made while cancel() itself runs are not bounded.)
	if got := atomic.LoadInt64(&late); got > workers {
		t.Errorf("%d calls started after cancel() returned, want at most %d", got, workers)
	}
}

func TestDataParallelRunCtxCancelled(t *testing.T) {
	master := []*Tensor{ZeroParam(2)}
	mkRep := func() []*Tensor { return []*Tensor{ZeroParam(2)} }
	for _, replicas := range [][][]*Tensor{{mkRep()}, {mkRep(), mkRep(), mkRep()}} {
		dp := NewDataParallel(master, replicas...)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var n int64
		err := dp.RunCtx(ctx, 500, func(worker, i int) { atomic.AddInt64(&n, 1) })
		if err != context.Canceled {
			t.Fatalf("%d replicas: got %v, want context.Canceled", len(dp.replicas), err)
		}
		if n != 0 {
			t.Fatalf("%d replicas: %d iterations ran on a pre-cancelled context", len(dp.replicas), n)
		}
		if err := dp.RunCtx(context.Background(), 500, func(worker, i int) { atomic.AddInt64(&n, 1) }); err != nil {
			t.Fatal(err)
		}
		if n != 500 {
			t.Fatalf("%d replicas: ran %d of 500 after un-cancelled rerun", len(dp.replicas), n)
		}
	}
}
