package main

import "testing"

func TestParseBench(t *testing.T) {
	r, ok := parseBench("BenchmarkFitParallel/workers=2-8  12  94811304 ns/op  1200 B/op  24 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if r.Name != "BenchmarkFitParallel/workers=2-8" || r.Iterations != 12 {
		t.Errorf("parsed %+v", r)
	}
	if r.NsPerOp != 94811304 || r.BytesPerOp != 1200 || r.AllocsOp != 24 {
		t.Errorf("metrics %+v", r)
	}

	r, ok = parseBench("BenchmarkServeQueries/shards=4-8  5000  240124 ns/op  4164 queries/sec")
	if !ok {
		t.Fatal("sharded line not parsed")
	}
	if r.Extra["queries/sec"] != 4164 {
		t.Errorf("extra metric lost: %+v", r.Extra)
	}

	if _, ok := parseBench("BenchmarkBroken notanumber"); ok {
		t.Error("malformed line accepted")
	}

	if _, ok = parseBench("BenchmarkServeQueriesBatch/shards=2-8  500  352115 ns/op  1454072 queries/sec"); !ok {
		t.Fatal("batch line not parsed")
	}
}
