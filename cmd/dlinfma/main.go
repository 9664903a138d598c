// Command dlinfma is the end-to-end CLI for the delivery-location inference
// system: generate a synthetic dataset, run the DLInfMA pipeline (train
// LocMatcher, infer every address), evaluate against ground truth, and serve
// the inferred locations over the deployed online API.
//
// Usage:
//
//	dlinfma generate -profile dowbj -out data.json.gz
//	dlinfma infer    -data data.json.gz -out locations.json
//	dlinfma eval     -data data.json.gz
//	dlinfma serve    -data data.json.gz -listen :8080 -snapshot state.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dlinfma/internal/deploy"
	"dlinfma/internal/engine"
	"dlinfma/internal/eval"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/nn"
	"dlinfma/internal/obs"
	"dlinfma/internal/obs/trace"
	"dlinfma/internal/peer"
	"dlinfma/internal/shard"
	"dlinfma/internal/synth"
	"dlinfma/internal/wal"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	// One signal context for every subcommand: the first SIGINT/SIGTERM
	// cancels ctx (training and pool builds abort at their next cooperative
	// check, the server drains), a second signal kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "infer":
		err = cmdInfer(ctx, os.Args[2:])
	case "eval":
		err = cmdEval(ctx, os.Args[2:])
	case "serve":
		err = cmdServe(ctx, os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlinfma:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dlinfma <generate|infer|eval|serve> [flags]")
	os.Exit(2)
}

func profileByName(name string) (synth.Profile, error) {
	switch name {
	case "dowbj":
		return synth.DowBJ(), nil
	case "subbj":
		return synth.SubBJ(), nil
	case "tiny":
		return synth.Tiny(), nil
	default:
		return synth.Profile{}, fmt.Errorf("unknown profile %q (dowbj|subbj|tiny)", name)
	}
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	profile := fs.String("profile", "dowbj", "dataset profile: dowbj|subbj|tiny")
	out := fs.String("out", "data.json.gz", "output path (.gz for compression)")
	pd := fs.Float64("pd", -1, "override batch-delay probability (default: profile's)")
	fs.Parse(args)
	p, err := profileByName(*profile)
	if err != nil {
		return err
	}
	if *pd >= 0 {
		p.DelayProb = *pd
	}
	ds, _, err := synth.Generate(p)
	if err != nil {
		return err
	}
	if err := ds.SaveFile(*out); err != nil {
		return err
	}
	st := synth.MeasureDelays(ds)
	fmt.Printf("wrote %s: %d trips, %d waybills, %d addresses, %d GPS points, %.0f%% batch-delayed\n",
		*out, len(ds.Trips), ds.Deliveries(), len(ds.Addresses), ds.TrajectoryPoints(),
		100*float64(st.Delayed)/float64(st.Waybills))
	return nil
}

// engineConfig assembles the CLI's engine configuration: the paper's
// pipeline defaults, the experiment harness's LocMatcher tuning, a 20%
// validation holdout, and one workers knob for both stages.
func engineConfig(workers int) engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Core.Workers = workers
	cfg.Matcher = eval.ExperimentLocMatcherConfig()
	cfg.Matcher.Workers = workers
	return cfg
}

// splitPeers parses the -peers flag: comma-separated base URLs, blanks
// dropped.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// shardFlags adds the shard topology flags shared by infer, eval, and serve.
func shardFlags(fs *flag.FlagSet) (shards, precision *int) {
	shards = fs.Int("shards", 1, "geographic shards the engine coordinates (1 = one shard holding everything, nothing routed)")
	precision = fs.Int("shard-precision", 0,
		fmt.Sprintf("geohash precision of the shard routing key (0 = default %d)", shard.DefaultPrecision))
	return shards, precision
}

// newEngine builds the engine over the shard flags' topology: N >= 1
// regional shards behind a geohash router, -shards 1 being the one-shard
// case of the same code. log and tracer may be nil (batch subcommands report
// through stdout and don't trace).
func newEngine(workers, shards, precision, maxPending int, lowConf float64, log *obs.Logger, tracer *trace.Tracer) (*engine.Engine, error) {
	cfg := engineConfig(workers)
	cfg.Logger = log
	cfg.Tracer = tracer
	cfg.MaxPendingTrips = maxPending
	cfg.LowConfidence = lowConf
	r, err := shard.NewRouter(shards, precision)
	if err != nil {
		return nil, err
	}
	return engine.NewSharded(cfg, r), nil
}

// runPipeline feeds the dataset through the engine in incremental windows
// and runs one full re-inference — the same path the serve subcommand's
// background jobs take, so batch and online runs cannot drift apart.
func runPipeline(ctx context.Context, ds *model.Dataset, workers, shards, precision int) (*engine.Engine, error) {
	e, err := newEngine(workers, shards, precision, 0, 0, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := e.IngestDataset(ctx, ds); err != nil {
		e.Close()
		return nil, err
	}
	if err := e.Reinfer(ctx); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

func cmdInfer(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("infer", flag.ExitOnError)
	data := fs.String("data", "data.json.gz", "dataset path")
	out := fs.String("out", "locations.json", "output path for inferred locations")
	workers := fs.Int("workers", 0, "parallel workers for pool builds, featurization and inference (0 = all cores); LocMatcher training is serial at 0 and 1, data-parallel only when >1")
	shards, precision := shardFlags(fs)
	fs.Parse(args)
	ds, err := model.LoadFile(*data)
	if err != nil {
		return err
	}
	e, err := runPipeline(ctx, ds, *workers, *shards, *precision)
	if err != nil {
		return err
	}
	defer e.Close()
	locs := e.InferredLocations()
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	table := make(map[string][2]float64, len(locs))
	for id, p := range locs {
		table[fmt.Sprint(id)] = [2]float64{p.X, p.Y}
	}
	if err := json.NewEncoder(f).Encode(table); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("inferred %d delivery locations -> %s\n", len(locs), *out)
	return nil
}

func cmdEval(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	data := fs.String("data", "data.json.gz", "dataset path")
	workers := fs.Int("workers", 0, "parallel workers for pool builds, featurization and inference (0 = all cores); LocMatcher training is serial at 0 and 1, data-parallel only when >1")
	shards, precision := shardFlags(fs)
	fs.Parse(args)
	ds, err := model.LoadFile(*data)
	if err != nil {
		return err
	}
	e, err := runPipeline(ctx, ds, *workers, *shards, *precision)
	if err != nil {
		return err
	}
	defer e.Close()
	locs := e.InferredLocations()
	var errs []float64
	for id, truth := range ds.Truth {
		if pred, ok := locs[id]; ok {
			errs = append(errs, geo.Dist(pred, truth))
		}
	}
	m := eval.Compute(errs)
	fmt.Printf("DLInfMA on %s (all addresses, including training regions):\n", ds.Name)
	fmt.Printf("  MAE=%.1f m  P95=%.1f m  beta50=%.1f%%  n=%d\n", m.MAE, m.P95, m.Beta50, m.N)
	return nil
}

func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	data := fs.String("data", "data.json.gz", "dataset path (\"\" to start empty and POST /v1/ingest)")
	listen := fs.String("listen", ":8080", "HTTP listen address")
	workers := fs.Int("workers", 0, "parallel workers for pool builds, featurization and inference (0 = all cores); LocMatcher training is serial at 0 and 1, data-parallel only when >1")
	snap := fs.String("snapshot", "", "snapshot path: restored on start if present, saved on shutdown")
	walDir := fs.String("wal-dir", "",
		"write-ahead-log directory: existing records are replayed on start, every accepted ingest is logged while serving (\"\" disables durability)")
	walFsync := fs.String("wal-fsync", "interval",
		"WAL fsync policy: always (fsync every append), interval (flush every append, fsync periodically), never")
	maxPending := fs.Int("max-pending-trips", 0,
		"reject ingest with 429 once this many trips await re-inference (0 = unbounded)")
	autoPending := fs.Int("auto-reinfer-pending", 0,
		"start a re-inference automatically once this many trips await one (0 disables the size trigger)")
	autoAge := fs.Duration("auto-reinfer-age", 0,
		"start a re-inference automatically once the oldest pending trip has waited this long (0 disables the age trigger)")
	autoInterval := fs.Duration("auto-reinfer-interval", engine.DefaultAutoReinferInterval,
		"how often the auto-reinfer monitor polls the engine status")
	logLevel := fs.String("log-level", "info", "log level: debug|info|warn|error (debug adds per-request access lines)")
	logFormat := fs.String("log-format", "logfmt", "log line encoding: logfmt|json")
	debugListen := fs.String("debug-listen", "",
		"optional second listen address for net/http/pprof and /metrics (keep it private)")
	traceSample := fs.Float64("trace-sample", 0.1,
		"head-sampling probability of request traces in [0,1] (slow or errored requests are kept regardless)")
	traceSlow := fs.Duration("trace-slow", time.Second,
		"requests at least this slow are traced even when head sampling passed (0 disables the rule)")
	traceBuffer := fs.Int("trace-buffer", 256,
		"completed traces kept in the in-memory ring buffer behind /v1/debug/traces (0 disables tracing)")
	peers := fs.String("peers", "",
		"comma-separated peer base URLs (http://host:port); turns this process into a cluster frontend that routes every shard to its ring owner in the peer set instead of running engines in-process")
	replication := fs.Int("replication", 1,
		"with -peers: distinct peers serving each shard (owner + replicas); writes go to all, reads fail over in ring order")
	peerTimeout := fs.Duration("peer-timeout", peer.DefaultTimeout, "with -peers: per-call timeout of one peer RPC")
	peerRetries := fs.Int("peer-retries", 1, "with -peers: extra retry rounds over a shard's replica list after the first pass")
	lowConfidence := fs.Float64("low-confidence", 0,
		"top-1 probability below which a re-inferred address counts as low-confidence in churn reports and metrics (0 = default 0.5)")
	shards, precision := shardFlags(fs)
	fs.Parse(args)

	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	format, err := obs.ParseFormat(*logFormat)
	if err != nil {
		return err
	}
	log := obs.NewLogger(os.Stderr, lvl, format)

	var tracer *trace.Tracer
	if *traceBuffer > 0 {
		tracer = trace.NewTracer(trace.Options{
			SampleProb:    *traceSample,
			SlowThreshold: *traceSlow,
			Store:         trace.NewStore(*traceBuffer),
		})
	}

	var e *engine.Engine
	if *peers != "" {
		// Frontend mode: shards live in the peer processes; this process
		// routes, replicates, and aggregates. Durability (snapshots, WAL)
		// belongs to each peer, so the local persistence flags must be off.
		if *snap != "" || *walDir != "" {
			return errors.New("-snapshot and -wal-dir are per-shard-process concerns; unset them when -peers is given")
		}
		peerList := splitPeers(*peers)
		if len(peerList) == 0 {
			return errors.New("-peers is set but names no peers")
		}
		r, rerr := shard.NewRouter(*shards, *precision)
		if rerr != nil {
			return rerr
		}
		cfg := engineConfig(*workers)
		cfg.Logger = log.With("component", "engine")
		cfg.Tracer = tracer
		cfg.LowConfidence = *lowConfidence
		backends, ring, berr := peer.NewFrontendBackends(r, peer.FrontendOptions{
			Peers:       peerList,
			Replication: *replication,
			Timeout:     *peerTimeout,
			Retries:     *peerRetries,
			Logger:      log.With("component", "cluster"),
		})
		if berr != nil {
			return berr
		}
		if e, err = engine.NewShardedBackends(cfg, r, backends); err != nil {
			return err
		}
		// The frontend's own registry has no model quality (its shards live in
		// the peers), so re-export each peer's quality families under
		// dlinfma_peer_* with a peer label.
		qp, qerr := peer.StartQualityPoller(peer.QualityOptions{
			Peers:   peerList,
			Timeout: *peerTimeout,
			Logger:  log.With("component", "cluster_quality"),
		})
		if qerr != nil {
			return qerr
		}
		defer qp.Stop()
		fmt.Printf("cluster frontend: %d shards over %d peers (replication %d)\n",
			r.N(), ring.NumPeers(), *replication)
	} else {
		if e, err = newEngine(*workers, *shards, *precision, *maxPending, *lowConfidence, log.With("component", "engine"), tracer); err != nil {
			return err
		}
	}
	defer e.Close()

	restored := false
	if *snap != "" {
		if _, err := os.Stat(*snap); err == nil {
			if err := e.LoadSnapshotFile(*snap); err != nil {
				return fmt.Errorf("restore snapshot %s: %w", *snap, err)
			}
			restored = true
			fmt.Printf("restored serving state from %s\n", *snap)
		}
	}
	// The WAL replays on top of the restored snapshot, rebuilding the ingest
	// state (pending trips, open streams) the snapshot omits; from then on
	// every accepted ingest is logged before it is acknowledged.
	replayed := 0
	if *walDir != "" {
		policy, perr := wal.ParsePolicy(*walFsync)
		if perr != nil {
			return perr
		}
		w, werr := wal.Open(*walDir, wal.Options{Policy: policy})
		if werr != nil {
			return fmt.Errorf("open wal %s: %w", *walDir, werr)
		}
		defer w.Close()
		start := time.Now()
		if replayed, err = e.ReplayWAL(ctx, w); err != nil {
			return fmt.Errorf("replay wal %s: %w", *walDir, err)
		}
		e.AttachWAL(w)
		if replayed > 0 {
			fmt.Printf("replayed %d WAL records from %s in %s\n", replayed, *walDir, time.Since(start).Round(time.Millisecond))
		}
	}
	if *data != "" && replayed > 0 {
		// The WAL already rebuilt the ingest state; re-ingesting the dataset
		// file would duplicate every trip it covers.
		fmt.Printf("skipping -data %s: WAL replay is the ingest authority\n", *data)
	} else if *data != "" {
		ds, err := model.LoadFile(*data)
		if err != nil {
			if !restored {
				return err
			}
			fmt.Fprintf(os.Stderr, "dlinfma: serving from snapshot only; load %s: %v\n", *data, err)
		} else {
			if err := e.IngestDataset(ctx, ds); err != nil {
				return err
			}
			// With a restored snapshot queries are already answerable; leave
			// retraining to POST /reinfer so startup stays fast. Cold starts
			// train synchronously before accepting traffic.
			if !restored {
				if err := e.Reinfer(ctx); err != nil {
					return err
				}
			}
		}
	}

	st := e.Status()
	if n := len(st.Shards); n > 0 {
		p := *precision
		if p == 0 {
			p = shard.DefaultPrecision
		}
		fmt.Printf("sharded engine: %d shards at geohash precision %d\n", n, p)
	}
	fmt.Printf("serving %d inferred locations on %s (GET /v1/locations/{key}, POST /v1/locations:batch, POST /v1/ingest, POST /v1/trajectories:stream, POST /v1/reinfer, GET /v1/snapshot, GET /v1/metrics) nn_kernels=%s\n",
		st.Inferred, *listen, nn.KernelSet())
	if *debugListen != "" {
		dsrv := deploy.NewServer(*debugListen, deploy.DebugHandler(tracer, e))
		go func() {
			if derr := deploy.Serve(ctx, dsrv); derr != nil {
				log.Error("debug listener failed", "addr", *debugListen, "err", derr)
			}
		}()
		log.Info("debug listener up", "addr", *debugListen)
	}
	auto := engine.StartAutoReinfer(e, engine.AutoReinferConfig{
		MaxPending: *autoPending,
		MaxAge:     *autoAge,
		Interval:   *autoInterval,
	}, log.With("component", "auto_reinfer"))
	srv := deploy.NewServer(*listen, deploy.NewService(e, deploy.Options{
		Logger: log.With("component", "http"),
		Tracer: tracer,
	}))
	err = deploy.Serve(ctx, srv)
	// Stop the staleness monitor first so no new job starts mid-shutdown,
	// then join any in-flight background re-inference before persisting, so
	// the snapshot observes a settled engine (Close is idempotent; the
	// deferred call becomes a no-op).
	auto.Stop()
	e.Close()
	if *snap != "" && e.Status().Ready {
		if serr := e.SaveSnapshotFile(*snap); serr != nil {
			if err == nil {
				err = serr
			}
		} else {
			fmt.Printf("saved serving state to %s\n", *snap)
		}
	}
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}
