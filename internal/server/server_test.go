package server

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/ivm"
	"repro/internal/ra"
	"repro/internal/store"
	"repro/internal/value"
)

// testEngine builds a small covered scenario: the Example-1 graph-search
// schema with friend/dine/cafe and unit access constraints.
func testEngine(t testing.TB) *core.Engine {
	t.Helper()
	schema := ra.Schema{
		"friend": {"pid", "fid"},
		"cafe":   {"cid", "city"},
		"dine":   {"pid", "cid"},
	}
	A := access.NewSchema(
		access.Constraint{Rel: "friend", X: []string{"pid"}, Y: []string{"fid"}, N: 5000},
		access.Constraint{Rel: "dine", X: []string{"pid"}, Y: []string{"cid"}, N: 31},
		access.Constraint{Rel: "cafe", X: []string{"cid"}, Y: []string{"city"}, N: 1},
	)
	db := store.NewDB(schema)
	rows := []struct {
		rel string
		t   value.Tuple
	}{
		{"friend", value.Tuple{value.NewInt(0), value.NewInt(1)}},
		{"friend", value.Tuple{value.NewInt(0), value.NewInt(2)}},
		{"dine", value.Tuple{value.NewInt(1), value.NewInt(10)}},
		{"dine", value.Tuple{value.NewInt(2), value.NewInt(11)}},
		{"cafe", value.Tuple{value.NewInt(10), value.NewStr("nyc")}},
		{"cafe", value.Tuple{value.NewInt(11), value.NewStr("sf")}},
	}
	for _, r := range rows {
		if _, err := db.Insert(r.rel, r.t); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := core.NewEngine(schema, A, db)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// startServer launches srv on a loopback listener and returns a ready
// client. The server is shut down when the test ends.
func startServer(t testing.TB, eng core.Service, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	srv := New(eng, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	c := NewClient(srv.Addr())
	if err := c.WaitReady(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, c
}

const friendQuery = "q(city) :- friend(0, f), dine(f, c), cafe(c, city)"

func TestQueryEndpoint(t *testing.T) {
	_, c := startServer(t, testEngine(t), Config{})
	ctx := context.Background()

	resp, err := c.Query(ctx, friendQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Covered || !resp.Bounded {
		t.Fatalf("want covered bounded query, got covered=%v bounded=%v", resp.Covered, resp.Bounded)
	}
	if resp.CacheHit {
		t.Fatal("first execution must be a cache miss")
	}
	if resp.RowCount != 2 || len(resp.Rows) != 2 {
		t.Fatalf("want 2 rows, got rowCount=%d len=%d", resp.RowCount, len(resp.Rows))
	}
	got := resp.RowTuples()
	if got[0][0].S != "nyc" || got[1][0].S != "sf" {
		t.Fatalf("unexpected rows %v", got)
	}
	if resp.Canonical == "" {
		t.Fatal("want canonical rule text for a rule-shaped query")
	}
	if resp.Accessed == 0 {
		t.Fatal("want nonzero access accounting")
	}

	resp2, err := c.Query(ctx, friendQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.CacheHit {
		t.Fatal("second execution must be a plan-cache hit")
	}
	if resp2.CompileMicros != 0 {
		t.Fatalf("cache hit must skip compilation, got %dµs", resp2.CompileMicros)
	}

	// A renamed, reordered variant shares the canonical fingerprint and
	// therefore hits too.
	variant := "q(town) :- cafe(x, town), dine(fr, x), friend(0, fr)"
	resp3, err := c.Query(ctx, variant)
	if err != nil {
		t.Fatal(err)
	}
	if !resp3.CacheHit {
		t.Fatal("canonically equal variant must hit the plan cache")
	}
}

func TestQueryOptions(t *testing.T) {
	_, c := startServer(t, testEngine(t), Config{})
	ctx := context.Background()

	// NoCache bypasses the plan cache.
	if _, err := c.Query(ctx, friendQuery); err != nil {
		t.Fatal(err)
	}
	resp, err := c.QueryOpts(ctx, QueryRequest{Query: friendQuery, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Fatal("noCache execution must not hit the cache")
	}

	// MaxRows truncates but reports the true cardinality.
	resp, err = c.QueryOpts(ctx, QueryRequest{Query: friendQuery, MaxRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.RowCount != 2 || !resp.Truncated {
		t.Fatalf("want 1 of 2 rows truncated, got len=%d rowCount=%d truncated=%v",
			len(resp.Rows), resp.RowCount, resp.Truncated)
	}

	// Parallel execution returns the same answer.
	resp, err = c.QueryOpts(ctx, QueryRequest{Query: friendQuery, Parallel: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.RowCount != 2 {
		t.Fatalf("parallel execution: want 2 rows, got %d", resp.RowCount)
	}
}

func TestQueryErrors(t *testing.T) {
	_, c := startServer(t, testEngine(t), Config{})
	ctx := context.Background()

	cases := []struct {
		name   string
		query  string
		status int
	}{
		{"empty", "", http.StatusBadRequest},
		{"syntax", "q(x) :- nope(", http.StatusUnprocessableEntity},
		{"unknown relation", "q(x) :- nosuch(x)", http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		_, err := c.Query(ctx, tc.query)
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("%s: want *APIError, got %v", tc.name, err)
		}
		if apiErr.Status != tc.status {
			t.Fatalf("%s: want status %d, got %d (%s)", tc.name, tc.status, apiErr.Status, apiErr.Message)
		}
	}

	// Malformed JSON body.
	resp, err := http.Post("http://"+strings.TrimPrefix(c.base, "http://")+"/query",
		"application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: want 400, got %d", resp.StatusCode)
	}

	// Wrong method.
	resp, err = http.Get("http://" + strings.TrimPrefix(c.base, "http://") + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: want 405, got %d", resp.StatusCode)
	}
}

// TestMutationKeepsPlansValid pins the PR 1 invariant on the wire: tuple
// writes leave the engine version unchanged and cached plans keep serving
// (and see the new data); access-schema changes bump the version.
func TestMutationKeepsPlansValid(t *testing.T) {
	eng := testEngine(t)
	_, c := startServer(t, eng, Config{})
	ctx := context.Background()

	warm, err := c.Query(ctx, friendQuery)
	if err != nil {
		t.Fatal(err)
	}

	ins, err := c.Insert(ctx, "friend", []value.Tuple{
		{value.NewInt(0), value.NewInt(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ins.Applied != 1 || ins.Requested != 1 {
		t.Fatalf("want 1/1 applied, got %d/%d", ins.Applied, ins.Requested)
	}
	if ins.Version != warm.Version {
		t.Fatalf("tuple insert changed engine version %d -> %d", warm.Version, ins.Version)
	}
	if _, err := c.Insert(ctx, "dine", []value.Tuple{{value.NewInt(3), value.NewInt(12)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(ctx, "cafe", []value.Tuple{{value.NewInt(12), value.NewStr("berlin")}}); err != nil {
		t.Fatal(err)
	}

	after, err := c.Query(ctx, friendQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !after.CacheHit {
		t.Fatal("cached plan must keep serving across tuple writes")
	}
	if after.RowCount != 3 {
		t.Fatalf("cached plan must see inserted data: want 3 rows, got %d", after.RowCount)
	}

	// Re-inserting an existing tuple is a set-semantics no-op.
	again, err := c.Insert(ctx, "friend", []value.Tuple{{value.NewInt(0), value.NewInt(3)}})
	if err != nil {
		t.Fatal(err)
	}
	if again.Applied != 0 {
		t.Fatalf("duplicate insert: want 0 applied, got %d", again.Applied)
	}

	del, err := c.Delete(ctx, "friend", []value.Tuple{{value.NewInt(0), value.NewInt(3)}})
	if err != nil {
		t.Fatal(err)
	}
	if del.Applied != 1 || del.Version != warm.Version {
		t.Fatalf("delete: want 1 applied at version %d, got %d at %d",
			warm.Version, del.Applied, del.Version)
	}
	final, err := c.Query(ctx, friendQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !final.CacheHit || final.RowCount != 2 {
		t.Fatalf("after delete: want cache hit with 2 rows, got hit=%v rows=%d",
			final.CacheHit, final.RowCount)
	}

	// An access-schema change, by contrast, must bump the version.
	if err := eng.AddConstraints(access.Constraint{
		Rel: "cafe", X: []string{"city"}, Y: []string{"cid"}, N: 100,
	}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != warm.Version+1 {
		t.Fatalf("constraint change: want version %d, got %d", warm.Version+1, st.Version)
	}
	miss, err := c.Query(ctx, friendQuery)
	if err != nil {
		t.Fatal(err)
	}
	if miss.CacheHit {
		t.Fatal("plan compiled before a schema change must not be served after it")
	}

	// Mutation error paths.
	_, err = c.Insert(ctx, "nosuch", []value.Tuple{{value.NewInt(1)}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("unknown relation: want 422, got %v", err)
	}
	_, err = c.Insert(ctx, "friend", []value.Tuple{{value.NewInt(1)}})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("arity mismatch: want 422, got %v", err)
	}
}

func TestSchemaAndStats(t *testing.T) {
	_, c := startServer(t, testEngine(t), Config{})
	ctx := context.Background()

	sch, err := c.Schema(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sch.Relations) != 3 {
		t.Fatalf("want 3 relations, got %d", len(sch.Relations))
	}
	if got := sch.Relations["friend"]; len(got) != 2 || got[0] != "pid" || got[1] != "fid" {
		t.Fatalf("friend attrs: got %v", got)
	}
	if len(sch.Constraints) != 3 {
		t.Fatalf("want 3 constraints, got %d", len(sch.Constraints))
	}

	if _, err := c.Query(ctx, friendQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, friendQuery); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits < 1 || st.Cache.Misses < 1 || st.Cache.Entries < 1 {
		t.Fatalf("cache counters not reported: %+v", st.Cache)
	}
	if st.DBSize != 6 {
		t.Fatalf("want dbSize 6, got %d", st.DBSize)
	}
	if st.IndexEntries == 0 {
		t.Fatal("want nonzero index entries")
	}
	if st.Requests < 3 {
		t.Fatalf("want request accounting, got %d", st.Requests)
	}
	// The executor block is always present: the two queries above ran
	// through the vectorized core, so batch and arena counters moved.
	ex := st.Executor
	if ex.Batches <= 0 || ex.ArenaGets <= 0 {
		t.Fatalf("executor counters not reported: %+v", ex)
	}
	if ex.RowsPerBatch < 0 || ex.PoolHitRate < 0 || ex.PoolHitRate > 1 {
		t.Fatalf("derived executor metrics out of range: %+v", ex)
	}
}

// TestIVMStatsAndMaterializedFlag pins the wire surface of answer
// maintenance: once a fingerprint crosses admission, repeats carry
// materialized=true, a mutation through the wire is visible on the very
// next (still materialized) read, and /stats carries the ivm block.
func TestIVMStatsAndMaterializedFlag(t *testing.T) {
	eng := testEngine(t)
	eng.SetIVMConfig(ivm.Config{Budget: 8, MinHits: 1, MinScore: 0, MaxViewRows: 1 << 18})
	_, c := startServer(t, eng, Config{})
	ctx := context.Background()

	first, err := c.Query(ctx, friendQuery)
	if err != nil {
		t.Fatal(err)
	}
	if first.Materialized {
		t.Fatal("first execution cannot be served from a view")
	}
	if _, err := c.Query(ctx, friendQuery); err != nil {
		t.Fatal(err) // plan-cache hit; admission happens after this run
	}
	third, err := c.Query(ctx, friendQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !third.Materialized || !third.CacheHit {
		t.Fatalf("third execution should be O(answer): materialized=%v cacheHit=%v",
			third.Materialized, third.CacheHit)
	}

	// A write through the wire must be folded into the maintained answer
	// before the next read returns.
	if _, err := c.Insert(ctx, "cafe", []value.Tuple{{value.NewInt(12), value.NewStr("austin")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(ctx, "dine", []value.Tuple{{value.NewInt(1), value.NewInt(12)}}); err != nil {
		t.Fatal(err)
	}
	after, err := c.Query(ctx, friendQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Materialized {
		t.Fatal("maintained view should survive a write, not fall back")
	}
	if after.RowCount != 3 {
		t.Fatalf("maintained answer stale after write: %d rows, want 3", after.RowCount)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.IVM == nil {
		t.Fatal("stats response missing the ivm block")
	}
	if st.IVM.Materialized == 0 || st.IVM.Hits < 2 || st.IVM.Admitted == 0 {
		t.Fatalf("ivm accounting not reported: %+v", st.IVM)
	}
	if st.IVM.DeltaApplies == 0 {
		t.Fatalf("mutations were not counted as delta applies: %+v", st.IVM)
	}
	if st.IVM.Budget != 8 {
		t.Fatalf("ivm budget: got %d, want 8", st.IVM.Budget)
	}
}

// TestTemplateStatsWire pins the template block of /stats: a new constant
// binding of a compiled shape misses the plan cache, is bound from the
// shape's template, and says so on the wire.
func TestTemplateStatsWire(t *testing.T) {
	_, c := startServer(t, testEngine(t), Config{})
	ctx := context.Background()
	first, err := c.Query(ctx, friendQuery)
	if err != nil {
		t.Fatal(err)
	}
	other, err := c.Query(ctx, strings.Replace(friendQuery, "friend(0,", "friend(1,", 1))
	if err != nil {
		t.Fatal(err)
	}
	if first.TemplateHit || !other.TemplateHit || other.CacheHit || other.CompileMicros != 0 {
		t.Fatalf("templateHit = %v then %v (cacheHit %v, compile %d us), want false then true",
			first.TemplateHit, other.TemplateHit, other.CacheHit, other.CompileMicros)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Templates == nil {
		t.Fatal("stats response missing the templates block")
	}
	if got := *st.Templates; got != (TemplateStatsWire{Hits: 1, Misses: 1, Entries: 1}) {
		t.Fatalf("templates block = %+v, want 1 hit, 1 miss, 1 entry", got)
	}
	if st.Cache.Misses != 2 || st.Cache.Entries != 2 {
		t.Fatalf("both bindings should miss the plan cache and be stored: %+v", st.Cache)
	}
}

// TestConcurrentQueries hammers the server from many client goroutines
// while writers churn tuples, the regime the serving layer is built for.
// Run under -race this is the race-cleanliness acceptance check.
func TestConcurrentQueries(t *testing.T) {
	_, c := startServer(t, testEngine(t), Config{})
	ctx := context.Background()

	queries := []string{
		friendQuery,
		"q(town) :- cafe(x, town), dine(fr, x), friend(0, fr)",
		"q(c) :- dine(1, c)",
		"q(f) :- friend(0, f)",
	}
	const (
		clients = 8
		perC    = 50
	)
	var wg sync.WaitGroup
	var failures atomic.Int64
	stop := make(chan struct{})

	// Two writers churn a tuple in and out for the duration.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tup := value.Tuple{value.NewInt(int64(100 + w)), value.NewInt(999)}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Insert(ctx, "friend", []value.Tuple{tup}); err != nil {
					failures.Add(1)
					return
				}
				if _, err := c.Delete(ctx, "friend", []value.Tuple{tup}); err != nil {
					failures.Add(1)
					return
				}
			}
		}(w)
	}

	var clientWG sync.WaitGroup
	for i := 0; i < clients; i++ {
		clientWG.Add(1)
		go func(i int) {
			defer clientWG.Done()
			for j := 0; j < perC; j++ {
				q := queries[(i+j)%len(queries)]
				if _, err := c.Query(ctx, q); err != nil {
					failures.Add(1)
					return
				}
			}
		}(i)
	}
	clientWG.Wait()
	close(stop)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d concurrent requests failed", n)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.HitRate < 0.9 {
		t.Fatalf("want >=90%% hit rate on a 4-query replay, got %.1f%%", 100*st.Cache.HitRate)
	}
}

// TestGracefulShutdownMidLoad holds queries in flight, shuts the server
// down, and asserts that the in-flight requests complete while new
// connections are refused.
func TestGracefulShutdownMidLoad(t *testing.T) {
	eng := testEngine(t)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := New(eng, Config{Logger: logger, RequestTimeout: 10 * time.Second})

	gate := make(chan struct{})
	var held atomic.Int64
	srv.hookBeforeExecute = func() {
		held.Add(1)
		<-gate
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	c := NewClient(srv.Addr())
	if err := c.WaitReady(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}

	const inFlight = 4
	results := make(chan error, inFlight)
	for i := 0; i < inFlight; i++ {
		go func() {
			_, err := c.Query(context.Background(), friendQuery)
			results <- err
		}()
	}
	// Wait until all requests are held inside the execution goroutine.
	deadline := time.Now().Add(5 * time.Second)
	for held.Load() < inFlight {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests in flight", held.Load(), inFlight)
		}
		time.Sleep(time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// The listener closes promptly: new connections must fail while the
	// held requests are still in flight.
	newConnRefused := false
	for i := 0; i < 100; i++ {
		conn, err := net.DialTimeout("tcp", ln.Addr().String(), 100*time.Millisecond)
		if err != nil {
			newConnRefused = true
			break
		}
		conn.Close()
		time.Sleep(10 * time.Millisecond)
	}
	if !newConnRefused {
		t.Fatal("shutdown did not close the listener")
	}

	// Release the held queries; they must all complete successfully.
	close(gate)
	for i := 0; i < inFlight; i++ {
		if err := <-results; err != nil {
			t.Fatalf("in-flight request failed during graceful shutdown: %v", err)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve: want http.ErrServerClosed, got %v", err)
	}
}

// TestCapacityLimit fills the in-flight semaphore and asserts that an
// excess request times out with 503 instead of executing.
func TestCapacityLimit(t *testing.T) {
	eng := testEngine(t)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := New(eng, Config{
		Logger:         logger,
		MaxInFlight:    2,
		RequestTimeout: 200 * time.Millisecond,
	})
	gate := make(chan struct{})
	srv.hookBeforeExecute = func() { <-gate }
	defer close(gate)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	c := NewClient(srv.Addr())
	if err := c.WaitReady(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Occupy both slots.
	occupied := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := c.Query(context.Background(), friendQuery)
			occupied <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.inFlight.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("slots not occupied in time")
		}
		time.Sleep(time.Millisecond)
	}

	// The third request cannot get a slot before its deadline.
	_, err = c.Query(context.Background(), friendQuery)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("want 503 at capacity, got %v", err)
	}

	// The occupied slots are 504s: their deadline passed while held. Both
	// outcomes (timeout answer, then background completion) are fine; the
	// point is the server stays responsive.
	for i := 0; i < 2; i++ {
		if err := <-occupied; err == nil {
			t.Fatal("held query should have timed out")
		} else if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGatewayTimeout {
			t.Fatalf("want 504 for held query, got %v", err)
		}
	}
}

// TestRequestTimeout holds a single query past its deadline and asserts
// the 504 answer.
func TestRequestTimeout(t *testing.T) {
	eng := testEngine(t)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := New(eng, Config{Logger: logger, RequestTimeout: 100 * time.Millisecond})
	gate := make(chan struct{})
	srv.hookBeforeExecute = func() { <-gate }
	defer close(gate)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	c := NewClient(srv.Addr())
	if err := c.WaitReady(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}

	_, err = c.Query(context.Background(), friendQuery)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("want 504 on timeout, got %v", err)
	}
}

// TestWireValueRoundTrip exercises the kind-faithful JSON encoding,
// including 64-bit integers beyond float64 precision.
func TestWireValueRoundTrip(t *testing.T) {
	eng := testEngine(t)
	_, c := startServer(t, eng, Config{})
	ctx := context.Background()

	big := int64(1) << 60
	if _, err := c.Insert(ctx, "friend", []value.Tuple{{value.NewInt(0), value.NewInt(big)}}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Query(ctx, "q(f) :- friend(0, f)")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range resp.RowTuples() {
		if row[0].K == value.Int && row[0].I == big {
			found = true
		}
	}
	if !found {
		t.Fatalf("1<<60 did not round-trip; rows %v", resp.RowTuples())
	}
}
