package work

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"dlinfma/bench/internal/gen"
	"dlinfma/bench/internal/httpc"
	"dlinfma/bench/internal/pacer"
	"dlinfma/bench/internal/proc"
	"dlinfma/bench/internal/stats"
	"dlinfma/internal/deploy/api"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/synth"
)

// refresh is the periodic re-inference: one POST /v1/reinfer over the
// ingested trips while an open-loop probe keeps looking addresses up. It is
// the only workload where model compute runs, where reads compete with
// training for the processors, and where reads cross a hot swap.
type refresh struct {
	cfg  Config
	ds   *model.Dataset
	data string
	snap string
}

const (
	probeRate    = 500 // lookups per second, uniform schedule
	probeWorkers = 8   // connections; more than the processors, so a slow answer does not hold the schedule
	pollEvery    = 25 * time.Millisecond
	afterSwap    = 200 * time.Millisecond // probing goes on across the swap
)

// refreshProfile is the re-inference dataset; the package's tests swap in
// the Tiny profile.
var refreshProfile = gen.RefreshProfile

func newRefresh(cfg Config) (*refresh, error) {
	ds, _, err := synth.Generate(refreshProfile())
	if err != nil {
		return nil, err
	}
	r := &refresh{cfg: cfg, ds: ds,
		data: filepath.Join(cfg.TmpDir, "refresh.json.gz"),
		snap: filepath.Join(cfg.TmpDir, "refresh-addresses.json"),
	}
	if err := ds.SaveFile(r.data); err != nil {
		return nil, err
	}
	// Addresses without locations: the server restores, ingests the trips
	// and serves geocodes, and does not train before it accepts traffic.
	return r, os.WriteFile(r.snap, gen.SnapshotDoc(ds.Name, ds.Addresses, nil), 0o644)
}

func (r *refresh) args() []string {
	return []string{"-snapshot", r.snap, "-data", r.data, "-shards", "1"}
}

func (r *refresh) ready(st api.EngineStatus) bool {
	return st.Ready && st.Trips == len(r.ds.Trips) && st.Addresses == len(r.ds.Addresses)
}

func (r *refresh) drive(child *proc.Child, _ float64, spans *spanSink) (*driven, error) {
	d := &driven{}

	// Probe keys: uniform over the addresses, from the run's seed.
	rng := rand.New(rand.NewSource(r.cfg.Seed))
	keys := make([]model.AddressID, 4096)
	for i := range keys {
		keys[i] = r.ds.Addresses[rng.Intn(len(r.ds.Addresses))].ID
	}
	geocode := make(map[model.AddressID]geo.Point, len(r.ds.Addresses))
	for _, a := range r.ds.Addresses {
		geocode[a.ID] = a.Geocode
	}
	conns := make([]*httpc.Conn, probeWorkers)
	for i := range conns {
		c, err := httpc.Dial(child.Addr)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		conns[i] = c
	}
	var (
		mu       sync.Mutex
		swapped  = map[model.AddressID]geo.Point{} // probe answers above geocode level: from the new store
		idBuf    = make([][]byte, probeWorkers)
		probeErr = func(err error) error { mu.Lock(); d.fail(err); mu.Unlock(); return err }
	)
	probe := func(worker, seq int) error {
		addr := keys[seq%len(keys)]
		idBuf[worker] = reqID(idBuf[worker], "p", worker, seq)
		id := string(idBuf[worker])
		t0 := time.Now()
		status, body, err := conns[worker].Get("/v1/locations/"+strconv.Itoa(int(addr)), id)
		t1 := time.Now()
		if err != nil {
			return probeErr(err)
		}
		var loc api.Location
		if status != 200 || json.Unmarshal(body, &loc) != nil || loc.Addr != int64(addr) {
			return probeErr(fmt.Errorf("probe %d: got %d %q", addr, status, body))
		}
		// The store restored at start has no locations and answers every
		// key with its geocode; an address- or building-level answer comes
		// from the store swapped in and is checked against the final read.
		got := geo.Point{X: loc.X, Y: loc.Y}
		if loc.Source == "geocode" {
			if got != geocode[addr] {
				return probeErr(fmt.Errorf("probe %d: geocode answer %v, want %v", addr, got, geocode[addr]))
			}
		} else {
			mu.Lock()
			swapped[addr] = got
			mu.Unlock()
		}
		spans.add(id, t0, t1)
		return nil
	}

	ctx, stopProbes := context.WithCancel(context.Background())
	defer stopProbes()
	probed := make(chan []pacer.Sample, 1)
	go func() { probed <- pacer.Run(ctx, probeRate, probeWorkers, probe) }()

	cpu0, err := child.CPU()
	if err != nil {
		return nil, err
	}
	self0, err := proc.SelfCPU()
	if err != nil {
		return nil, err
	}
	started, job, err := reinferAndWait("http://" + child.Addr)
	if err != nil {
		return nil, err
	}
	reinfer := time.Since(started)
	cpu1, err := child.CPU()
	if err != nil {
		return nil, err
	}
	self1, err := proc.SelfCPU()
	if err != nil {
		return nil, err
	}
	time.Sleep(afterSwap)
	stopProbes()
	samples := <-probed

	served, geocoded := r.readBack(d, conns[0], swapped, job.Inferred)
	for _, s := range samples {
		d.attempted++
		d.lat = append(d.lat, int64(s.Latency))
		d.lateness = append(d.lateness, int64(s.Lateness))
	}
	stats.SortNS(d.lat)
	stats.SortNS(d.lateness)
	n := len(r.ds.Addresses)
	d.throughput = float64(n) / reinfer.Seconds()
	d.cpuPerOp = (cpu1 - cpu0) / time.Duration(n)
	d.clientCPUShare = float64(self1-self0) / float64(reinfer) / float64(procs())
	d.extra = []stats.Metric{
		stats.Dur("reinfer_s", reinfer),
		stats.Num("served_mae_m", served),
		stats.Num("geocode_mae_m", geocoded),
	}
	return d, nil
}

// reinferAndWait starts a re-inference and polls the job until it is done.
// It returns the instant the 202 arrived and the finished job.
func reinferAndWait(base string) (started time.Time, job api.JobStatus, err error) {
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Post(base+"/v1/reinfer", "application/json", nil)
	if err != nil {
		return started, job, err
	}
	resp.Body.Close()
	started = time.Now()
	if resp.StatusCode != http.StatusAccepted {
		return started, job, fmt.Errorf("POST /v1/reinfer: status %d", resp.StatusCode)
	}
	for job.State != api.JobDone {
		time.Sleep(pollEvery)
		resp, err := client.Get(base + "/v1/reinfer")
		if err != nil {
			return started, job, err
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			return started, job, err
		}
		if job.State == api.JobFailed {
			return started, job, fmt.Errorf("re-inference failed: %s", job.Error)
		}
	}
	return started, job, nil
}

// readBack reads every address from the swapped-in store: each answer must
// agree with what a probe was told after the swap, geocode-level answers must
// be the geocode, the job's count must be the number of address-level
// answers, and the served answers must beat the geocodes against the
// synthetic truth. It returns both mean errors in metres.
func (r *refresh) readBack(d *driven, conn *httpc.Conn, swapped map[model.AddressID]geo.Point, jobInferred int) (served, geocoded float64) {
	var withTruth float64
	inferred := 0
	for _, a := range r.ds.Addresses {
		status, body, err := conn.Get("/v1/locations/"+strconv.Itoa(int(a.ID)), "final")
		d.attempted++
		var loc api.Location
		if err != nil || status != 200 || json.Unmarshal(body, &loc) != nil {
			d.fail(fmt.Errorf("final read %d: status %d %q: %v", a.ID, status, body, err))
			continue
		}
		got := geo.Point{X: loc.X, Y: loc.Y}
		if seen, ok := swapped[a.ID]; ok && seen != got {
			d.fail(fmt.Errorf("address %d: a probe was answered %v, the store now serves %v", a.ID, seen, got))
		}
		switch loc.Source {
		case "address":
			inferred++
		case "geocode":
			if got != a.Geocode {
				d.fail(fmt.Errorf("address %d: geocode answer %v, want %v", a.ID, got, a.Geocode))
			}
		}
		if truth, ok := r.ds.Truth[a.ID]; ok {
			served += geo.Dist(got, truth)
			geocoded += geo.Dist(a.Geocode, truth)
			withTruth++
		}
	}
	served, geocoded = served/withTruth, geocoded/withTruth
	if jobInferred != inferred {
		d.fail(fmt.Errorf("job reports %d inferred addresses, the store serves %d at address level", jobInferred, inferred))
	}
	if !(served < geocoded) {
		d.fail(fmt.Errorf("served MAE %.1f m does not beat the geocode's %.1f m", served, geocoded))
	}
	return served, geocoded
}
