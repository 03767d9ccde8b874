package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"smartssd/internal/core"
	"smartssd/internal/device"
	"smartssd/internal/page"
	"smartssd/internal/schema"
	"smartssd/internal/serve"
	"smartssd/internal/ssd"
	"smartssd/workload"
)

// serveConfig sizes one service instance.
type serveConfig struct {
	sf          float64
	dataSeed    int64
	workers     int
	withCluster bool
	devices     int
	replication int
}

// serveEnv is one loaded service listening on loopback, plus the
// in-process handles the gate and the ladder use.
type serveEnv struct {
	cfg     serveConfig
	base    *core.Engine // the loaded engine the workers cloned; never run
	cluster *core.Cluster
	srv     *serve.Server
	url     string
	client  *http.Client
	hs      *http.Server
	served  chan error

	loadTime  time.Duration // Engine.Load + Cluster.Load/Replicate
	cloneTime time.Duration // serve.New (one engine clone per worker)
}

// loadEngine builds an engine holding lineitem and part at sf, loaded
// from the same generators the daemon uses.
func loadEngine(sf float64, seed int64) (*core.Engine, error) {
	e, err := core.New(core.Config{DisableHDD: true})
	if err != nil {
		return nil, err
	}
	li, pa := workload.LineitemSchema(), workload.PartSchema()
	if _, err := e.CreateTable("lineitem", li, page.PAX, workload.NumLineitem(sf)/51+2, core.OnSSD); err != nil {
		return nil, err
	}
	if err := e.Load("lineitem", workload.LineitemGen(sf, seed)); err != nil {
		return nil, err
	}
	if _, err := e.CreateTable("part", pa, page.PAX, workload.NumPart(sf)/40+2, core.OnSSD); err != nil {
		return nil, err
	}
	if err := e.Load("part", workload.PartGen(sf, seed+1)); err != nil {
		return nil, err
	}
	return e, nil
}

// loadCluster builds the partitioned, replicated cluster backend over
// the same data as loadEngine.
func loadCluster(cfg serveConfig) (*core.Cluster, error) {
	sf, seed := cfg.sf, cfg.dataSeed
	cl, err := core.NewCluster(cfg.devices, ssd.DefaultParams(), device.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	cl.SetReplication(cfg.replication)
	li, pa := workload.LineitemSchema(), workload.PartSchema()
	if err := cl.CreateTable("lineitem", li, page.PAX, workload.NumLineitem(sf)/51+2); err != nil {
		return nil, err
	}
	if err := cl.Load("lineitem", workload.LineitemGen(sf, seed)); err != nil {
		return nil, err
	}
	if err := cl.CreateTable("part", pa, page.PAX, workload.NumPart(sf)/40+2); err != nil {
		return nil, err
	}
	err = cl.Replicate("part", func() func() (schema.Tuple, bool) { return workload.PartGen(sf, seed+1) })
	if err != nil {
		return nil, err
	}
	return cl, nil
}

// startServe loads the backends, builds the service and starts it on a
// loopback listener.
func startServe(cfg serveConfig, clients int) (*serveEnv, error) {
	env := &serveEnv{cfg: cfg}
	var err error
	env.loadTime = timed(func() {
		if env.base, err = loadEngine(cfg.sf, cfg.dataSeed); err != nil {
			return
		}
		if cfg.withCluster {
			env.cluster, err = loadCluster(cfg)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	env.cloneTime = timed(func() {
		env.srv, err = serve.New(serve.Config{Workers: cfg.workers}, env.base, env.cluster)
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.srv.Close()
		return nil, err
	}
	env.url = "http://" + ln.Addr().String()
	env.hs = &http.Server{Handler: env.srv.Handler()}
	env.served = make(chan error, 1)
	go func() { env.served <- env.hs.Serve(ln) }()
	env.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
	return env, nil
}

// close stops the listener, waits for the serve goroutine, and drains
// the worker pool.
func (env *serveEnv) close() error {
	env.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := env.hs.Shutdown(ctx)
	if serr := <-env.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	env.srv.Close()
	return err
}

// session runs one OPEN → long-poll GET → CLOSE exchange and returns
// the result status and body. A refused open (400, 429, ...) returns
// that status and the refusal body.
func (env *serveEnv) session(body []byte) (int, []byte, error) {
	status, open, err := env.do(http.MethodPost, "/sessions", body)
	if err != nil {
		return 0, nil, err
	}
	if status != http.StatusCreated {
		return status, open, nil
	}
	var ob struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(open, &ob); err != nil {
		return 0, nil, fmt.Errorf("open body: %w", err)
	}
	status, res, err := env.do(http.MethodGet, "/sessions/"+ob.ID+"/result", nil)
	if err != nil {
		return 0, nil, err
	}
	cs, _, err := env.do(http.MethodDelete, "/sessions/"+ob.ID, nil)
	if err != nil {
		return 0, nil, err
	}
	if cs != http.StatusOK {
		return 0, nil, fmt.Errorf("close %s = %d", ob.ID, cs)
	}
	return status, res, nil
}

func (env *serveEnv) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, env.url+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := env.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// opResult is one measured session.
type opResult struct {
	idx   int
	read  bool
	start time.Duration // since the loop started
	lat   time.Duration
	ok    bool // answered 200 and passed the gate
}

// closedLoop runs ops 0, 1, 2, ... on clients goroutines, each sending
// its next session only after the previous one completed, until dur
// has passed. exec runs op i and reports whether it is a read and
// whether it succeeded; it must be safe for concurrent use. Results
// come back in op order.
func closedLoop(clients int, dur time.Duration, exec func(i int) (read, ok bool, err error)) ([]opResult, time.Duration, error) {
	var next atomic.Int64
	var firstErr atomic.Value
	per := make([][]opResult, clients)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if time.Since(t0) >= dur || firstErr.Load() != nil {
					return
				}
				i := int(next.Add(1) - 1)
				st := time.Since(t0)
				read, ok, err := exec(i)
				lat := time.Since(t0) - st
				if err != nil {
					firstErr.CompareAndSwap(nil, fmt.Errorf("op %d: %w", i, err))
					return
				}
				per[c] = append(per[c], opResult{idx: i, read: read, start: st, lat: lat, ok: ok})
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	if err, _ := firstErr.Load().(error); err != nil {
		return nil, wall, err
	}
	var all []opResult
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].idx < all[b].idx })
	return all, wall, nil
}

// passOps is the block of consecutive sessions that makes one "pass"
// of a serve workload for suite_pass_s.
const passOps = 64

// readLatencies returns the read sessions' latencies in ms and the
// number of sessions that succeeded. A failed or refused read ranks
// above every success: it is entered with wall, the whole loop's time.
func readLatencies(res []opResult, wall time.Duration) (reads []float64, okOps int) {
	for _, o := range res {
		if o.ok {
			okOps++
		}
		if !o.read {
			continue
		}
		if o.ok {
			reads = append(reads, ms(o.lat))
		} else {
			reads = append(reads, ms(wall))
		}
	}
	return reads, okOps
}

// windowOps is the number of consecutive session completions a timed
// closed loop is cut into windows of (about a second on serve-engine-
// small): the loop's rate and read quantiles are medians over windows,
// so a slow phase of the machine shorter than half the run moves them
// little. A loop shorter than two windows is one window.
const windowOps = 1024

// reportLoop sets the end-to-end metrics of a timed closed loop:
// ok_ops_per_s, read_p50_ms and read_p99_ms as medians over windows
// (ops beyond the last whole window are left out), and suite_pass_s.
func reportLoop(r *report, res []opResult, wall time.Duration) {
	reads, okOps := readLatencies(res, wall)
	byEnd := append([]opResult(nil), res...)
	sort.Slice(byEnd, func(a, b int) bool { return byEnd[a].start+byEnd[a].lat < byEnd[b].start+byEnd[b].lat })
	ends := make([]float64, len(byEnd))
	for i, o := range byEnd {
		ends[i] = float64(o.start+o.lat) / float64(time.Second)
	}
	var rates, p50s, p99s []float64
	window := func(w []opResult, span time.Duration) {
		wReads, wOK := readLatencies(w, span)
		rates = append(rates, float64(wOK)/span.Seconds())
		p50s = append(p50s, quantile(wReads, 0.50))
		p99s = append(p99s, quantile(wReads, 0.99))
	}
	if len(byEnd) < 2*windowOps {
		window(byEnd, wall)
	}
	for k := windowOps; len(byEnd) >= 2*windowOps && k <= len(byEnd); k += windowOps {
		w := byEnd[k-windowOps : k]
		start := w[0].start + w[0].lat
		if k > windowOps {
			start = byEnd[k-windowOps-1].start + byEnd[k-windowOps-1].lat
		}
		window(w, w[len(w)-1].start+w[len(w)-1].lat-start)
	}
	r.Attempted += len(res)
	r.Failed += len(res) - okOps
	r.set("ok_ops_per_s", median(rates), "1/s")
	r.set("read_p50_ms", median(p50s), "ms")
	r.set("read_p99_ms", median(p99s), "ms")
	r.set("suite_pass_s", passSeconds(ends, wall), "s")
	r.printf("loop: %d sessions (%d reads, %d ok) in %.3fs; %d windows of %d, their rates %.0f to %.0f/s",
		len(res), len(reads), okOps, wall.Seconds(), len(rates), windowOps, quantile(rates, 0), quantile(rates, 1))
}

// passSeconds is the median wall time of passOps consecutive session
// completions; a loop shorter than two passes reports the mean rate.
func passSeconds(ends []float64, wall time.Duration) float64 {
	sort.Float64s(ends)
	if len(ends) < 2*passOps+1 {
		if len(ends) == 0 {
			return wall.Seconds()
		}
		return wall.Seconds() / float64(len(ends)) * passOps
	}
	var passes []float64
	for k := passOps; k < len(ends); k += passOps {
		passes = append(passes, ends[k]-ends[k-passOps])
	}
	return median(passes)
}

// setupRepeated builds an environment reps times, keeps the last,
// closes the others, and reports the median build time as setup_s.
// The traced run builds once: it reports core.load_s and core.clone_ms
// instead.
func setupRepeated[E any](o options, r *report, reps int, build func() (E, error), closeEnv func(E) error) (E, error) {
	var times []float64
	var env E
	if o.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		var err error
		d := timed(func() { env, err = build() })
		if err != nil {
			return env, err
		}
		times = append(times, d.Seconds())
		if i < reps-1 {
			if err := closeEnv(env); err != nil {
				return env, err
			}
		}
	}
	if !o.trace {
		r.set("setup_s", median(times), "s")
	}
	return env, nil
}

// resultRows extracts the compacted "rows" array of a result body.
func resultRows(body []byte) ([]byte, error) {
	var rb struct {
		Rows json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(body, &rb); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, rb.Rows); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encodeRows renders tuples the way the service does: Char columns as
// strings, everything else as its integer.
func encodeRows(tuples []schema.Tuple) []byte {
	rows := make([][]any, 0, len(tuples))
	for _, t := range tuples {
		row := make([]any, len(t))
		for i, v := range t {
			if v.Bytes != nil {
				row[i] = string(v.Bytes)
			} else {
				row[i] = v.Int
			}
		}
		rows = append(rows, row)
	}
	data, _ := json.Marshal(rows) // ints and strings always marshal
	return data
}

// zipfDraws returns n tenant indexes in [0,k) drawn from a Zipf law
// with exponent s, from a splitmix64 stream keyed by seed.
func zipfDraws(seed int64, n, k int, s float64) []int {
	cdf := make([]float64, k)
	total := 0.0
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	out := make([]int, n)
	x := uint64(seed)
	for i := range out {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		u := float64(z>>11) / float64(1<<53) * total
		out[i] = sort.SearchFloat64s(cdf, u)
		if out[i] >= k {
			out[i] = k - 1
		}
	}
	return out
}
