package main

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/ra"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Serving surfaces a workload can target.
const (
	surfaceEngine  = "engine"  // in-process *core.Engine
	surfaceDurable = "durable" // in-process durable *core.Engine (WAL)
	surfaceHTTP    = "http"    // internal/server over loopback
	surfaceRouter  = "router"  // in-process *shard.Router
)

// workloadCfg fixes everything a workload's runs share except the seed.
type workloadCfg struct {
	Name         string  `json:"name"`
	Surface      string  `json:"surface"`
	Dataset      string  `json:"dataset"`
	Scale        float64 `json:"scale"`
	Shards       int     `json:"shards,omitempty"`
	PoolSize     int     `json:"pool_size,omitempty"`
	ZipfS        float64 `json:"zipf_s,omitempty"`
	ResiduePool  int     `json:"residue_pool,omitempty"`
	WriteShare   float64 `json:"write_share"`
	ResidueShare float64 `json:"residue_share,omitempty"`
	Fresh        bool    `json:"fresh_params,omitempty"`
	// Rate is the open-loop offered rate in ops/s: a fifth to a ninth of
	// the closed-loop saturation rate measured on a 2-core host, low
	// enough that a slower spell of a shared host does not tip the open
	// loop into queueing.
	Rate float64 `json:"offered_ops_s"`
	// Fsync is the WAL policy of the durable surface.
	Fsync string `json:"fsync,omitempty"`
	// WriteSample is how many live tuples the writes churn.
	WriteSample int `json:"write_sample"`
	// WriteRels are the relations writes are drawn from.
	WriteRels []string `json:"write_rels"`
}

var workloads = []workloadCfg{
	{
		Name: "hot_repeat", Surface: surfaceEngine, Dataset: "AIRCA", Scale: 0.1,
		PoolSize: 40, ZipfS: 1.2, WriteShare: 0.02, Rate: 10000,
		WriteSample: 256, WriteRels: []string{"ontime", "carrier", "delaycause", "airport", "plane"},
	},
	{
		Name: "fresh_params", Surface: surfaceHTTP, Dataset: "TFACC", Scale: 0.5,
		Fresh: true, WriteShare: 0.4, Rate: 300,
		// Writes churn relations no fresh shape reads, so every read's
		// answer is fixed for the whole run and can be checked as served.
		WriteSample: 64, WriteRels: []string{"locality", "district", "force"},
	},
	{
		Name: "write_durable", Surface: surfaceDurable, Dataset: "AIRCA", Scale: 0.1,
		PoolSize: 40, ZipfS: 1.2, WriteShare: 0.4, Rate: 5000, Fsync: "interval",
		WriteSample: 256, WriteRels: []string{"ontime", "carrier", "delaycause", "airport", "plane"},
	},
	{
		Name: "sharded_mix", Surface: surfaceRouter, Dataset: "AIRCA", Scale: 0.1, Shards: 2,
		PoolSize: 40, ZipfS: 1.2, ResiduePool: 32, WriteShare: 0.1, ResidueShare: 0.15, Rate: 1500,
		WriteSample: 256, WriteRels: []string{"ontime", "carrier", "delaycause", "airport", "plane"},
	},
}

func workloadByName(name string) (*workloadCfg, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// writeTuple is one live tuple the writes delete and reinsert.
type writeTuple struct {
	rel string
	t   value.Tuple
}

// system is a set-up workload: the served surface, its pools and the
// write sample.
type system struct {
	cfg    *workloadCfg
	d      *workload.Dataset
	seed   int64
	svc    core.Service  // the in-process surface (engine or router)
	eng    *core.Engine  // the served engine (nil on the router surface)
	router *shard.Router // nil unless the router surface
	dir    string        // WAL directory of the durable surface

	srv  *server.Server
	cli  *server.Client
	wrap *tracedService // the service the HTTP server calls

	hot, residue []poolEntry
	fresh        *freshSpace
	writes       []writeTuple

	genTime, indexTime time.Duration
	dbSize, indexes    int64
}

// setup builds the workload's system from the seed: dataset generation,
// index build, pool construction and (for http) server start.
func setup(cfg *workloadCfg, seed int64, scratch string) (*system, error) {
	d, err := workload.ByName(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	s := &system{cfg: cfg, d: d, seed: seed}
	t0 := time.Now()
	db, err := d.Gen(cfg.Scale, seed)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", cfg.Dataset, err)
	}
	s.genTime = time.Since(t0)
	rng := rand.New(rand.NewSource(seed))
	if s.writes, err = writeSample(db, cfg.WriteRels, cfg.WriteSample, rng); err != nil {
		return nil, err
	}

	t1 := time.Now()
	switch cfg.Surface {
	case surfaceEngine, surfaceHTTP:
		s.eng, err = core.NewEngine(d.Schema, d.Access, db)
	case surfaceDurable:
		s.dir, err = os.MkdirTemp(scratch, "wal-")
		if err != nil {
			return nil, err
		}
		pol, perr := wal.ParsePolicy(cfg.Fsync)
		if perr != nil {
			return nil, perr
		}
		s.eng, err = core.OpenDurable(d.Schema, d.Access, db, core.DurableConfig{
			Dir: s.dir,
			// One segment holds a whole run, so the live segment bytes
			// grow by exactly what the run appends.
			WAL: wal.Options{Fsync: pol, SegmentBytes: 1 << 30},
		})
	case surfaceRouter:
		s.router, err = shard.New(d.Schema, d.Access, db, shard.Spec{Shards: cfg.Shards, Keys: d.ShardKeys})
	default:
		err = fmt.Errorf("unknown surface %q", cfg.Surface)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	s.indexTime = time.Since(t1)
	if s.eng != nil {
		s.svc = s.eng
	} else {
		s.svc = s.router
	}
	s.dbSize, s.indexes = s.svc.DBSize(), s.svc.IndexEntries()

	if err := s.buildPools(rng); err != nil {
		s.close()
		return nil, err
	}
	if cfg.Surface == surfaceHTTP {
		if err := s.serveHTTP(); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// writeSample draws n live tuples, without replacement, from rels.
func writeSample(db *store.DB, rels []string, n int, rng *rand.Rand) ([]writeTuple, error) {
	var all []writeTuple
	for _, rel := range rels {
		rows, err := sortedRows(db, rel)
		if err != nil {
			return nil, err
		}
		for _, t := range rows {
			all = append(all, writeTuple{rel, t})
		}
	}
	if len(all) < n {
		return nil, fmt.Errorf("write sample: %d live tuples in %v, want %d", len(all), rels, n)
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:n], nil
}

func (s *system) buildPools(rng *rand.Rand) error {
	if s.cfg.Fresh {
		fs, err := newFreshSpace(s.eng.DB(), s.d.Schema, tfaccFresh, rng)
		s.fresh = fs
		return err
	}
	// Pools are drawn against a plain engine: the served surface only
	// ever sees the schedule. The router partitions its own copy, so it
	// gets a probe engine over a second instance from the same seed.
	probe := s.eng
	if probe == nil {
		db, err := s.d.Gen(s.cfg.Scale, s.seed)
		if err != nil {
			return err
		}
		if probe, err = core.NewEngine(s.d.Schema, s.d.Access, db); err != nil {
			return err
		}
	}
	// On the router the hot pool keeps to single-shard and scatter
	// reads: residue-routed reads are their own share of the mix.
	var route func(q ra.Query) (string, bool, error)
	if s.router != nil {
		route = func(q ra.Query) (string, bool, error) {
			kind, err := s.router.RouteKind(q)
			return kind, kind != "residue", err
		}
	}
	hot, err := hotPool(probe, s.d.Schema, aircaHot, s.cfg.PoolSize, route, rng)
	if err != nil {
		return err
	}
	s.hot = hot
	if s.cfg.ResiduePool > 0 {
		if s.residue, err = residuePool(probe, s.router, s.d.Schema, aircaResidue, s.cfg.ResiduePool, rng); err != nil {
			return err
		}
	}
	return nil
}

// serveHTTP starts the front end over the engine on a loopback port.
func (s *system) serveHTTP() error {
	s.wrap = &tracedService{Service: s.eng, eng: s.eng, schema: s.d.Schema}
	s.srv = server.New(s.wrap, server.Config{
		Logger:         slog.New(slog.DiscardHandler),
		MaxRows:        -1,
		RequestTimeout: time.Minute,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.srv.Serve(ln) }()
	s.cli = server.NewClient(s.srv.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.cli.WaitReady(ctx, 10*time.Second); err != nil {
		return fmt.Errorf("server not ready: %w", err)
	}
	return nil
}

// close releases the system: server, WAL and its directory.
func (s *system) close() {
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.srv.Shutdown(ctx)
		cancel()
		s.srv = nil
	}
	if s.eng != nil && s.dir != "" {
		_ = s.eng.Close()
	}
	if s.router != nil {
		_ = s.router.Close()
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
		s.dir = ""
	}
}

// scratchDir is the per-run working directory under the checkout.
func scratchDir() (string, error) {
	base := os.Getenv("CARGO_TARGET_DIR")
	if base == "" {
		base = ".bench_build"
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "perfbench-run-")
}
