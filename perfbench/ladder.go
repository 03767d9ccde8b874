package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"smartssd/internal/bufpool"
	"smartssd/internal/core"
	"smartssd/internal/expr"
	"smartssd/internal/opt"
	"smartssd/internal/page"
	"smartssd/internal/schema"
	"smartssd/internal/sim"
)

// perLayer lists every per-layer metric the traced run prints, with
// its unit. A layer a workload does not reach reports 0.
var perLayer = []struct{ name, unit string }{
	{"serve.decode_us", "us"},
	{"serve.overhead_us", "us"},
	{"serve.body_bytes", "bytes"},
	{"serve.alloc_kb_per_op", "KB"},
	{"sql.compile_us", "us"},
	{"expr.parse_us", "us"},
	{"expr.compile_batch_us", "us"},
	{"expr.kernel_reuse_ratio", "ratio"},
	{"opt.decide_us", "us"},
	{"opt.pushdown_ratio", "ratio"},
	{"core.engine_run_ms.host", "ms"},
	{"core.engine_run_ms.device", "ms"},
	{"core.cluster_run_ms", "ms"},
	{"core.cluster_update_ms.acked", "ms"},
	{"core.cluster_update_ms.failed", "ms"},
	{"core.load_s", "s"},
	{"core.clone_ms", "ms"},
	{"exec.self_ms", "ms"},
	{"exec.tuples_per_op", "count"},
	{"device.self_ms", "ms"},
	{"bufpool.get_ns", "ns"},
	{"bufpool.hit_ratio", "ratio"},
	{"bufpool.evictions_per_op", "count"},
	{"page.bind_us", "us"},
	{"page.decode_us", "us"},
	{"ssd.read_page_us", "us"},
	{"nand.pages_read_per_op", "count"},
	{"nand.pages_programmed_per_update", "count"},
	{"sim.serve_ns", "ns"},
	{"sim.events_per_op", "count"},
	{"wal.pages_per_commit", "count"},
	{"txn.write_amp", "ratio"},
	{"wal.commits_until_full", "count"},
	{"experiments.fig3_s", "s"},
	{"experiments.fig5_s", "s"},
	{"experiments.fig7_s", "s"},
	{"experiments.table3_s", "s"},
	{"runner.speedup", "ratio"},
	{"fail_ratio", "ratio"},
	{"trace.overhead_us", "us"},
}

// span is one timed call into a layer: its op, its name, the rung
// above it, and its start and end in nanoseconds since the trace began.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory, accumulates per-layer self time for
// the attribution table, and averages per-layer metrics.
type tracer struct {
	t0    time.Time
	spans []span
	// self is each layer's attributed self time, summed over ops.
	self map[string]time.Duration
	// sum and n average the per-layer metrics (value per sample).
	sum, n map[string]float64
}

func newTracer() *tracer {
	return &tracer{
		t0:   time.Now(),
		self: make(map[string]time.Duration),
		sum:  make(map[string]float64),
		n:    make(map[string]float64),
	}
}

// do times fn as a span of op under parent.
func (t *tracer) do(op int, name, parent string, fn func()) time.Duration {
	s := time.Since(t.t0)
	fn()
	e := time.Since(t.t0)
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent, Start: int64(s), End: int64(e)})
	return e - s
}

// add records one sample of a per-layer metric.
func (t *tracer) add(name string, v float64) { t.addN(name, v, 1) }

// addN records a total v that covers n samples (n may be 0: the total
// then adds to a later average without adding samples).
func (t *tracer) addN(name string, v, n float64) {
	t.sum[name] += v
	t.n[name] += n
}

// set fixes a per-layer metric to one value.
func (t *tracer) set(name string, v float64) {
	t.sum[name] = v
	t.n[name] = 1
}

// attribute adds self time to a layer of the attribution table.
func (t *tracer) attribute(layer string, d time.Duration) { t.self[layer] += d }

// report sets every per-layer metric (0 where the workload has no
// sample) and writes the span log.
func (t *tracer) report(r *report, spansPath string) error {
	for _, m := range perLayer {
		v := 0.0
		if t.n[m.name] > 0 {
			v = t.sum[m.name] / t.n[m.name]
		}
		r.set(m.name, v, m.unit)
	}
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(spansPath, data, 0o644); err != nil {
		return err
	}
	r.printf("spans: %d written to %s", len(t.spans), spansPath)
	return nil
}

// attribution prints each layer's self time per op and its share of
// the untraced end-to-end time per op. The remainder row is the
// untraced time no layer accounts for (negative when tracing made the
// ladder slower than the untraced op), so the rows sum to the
// end-to-end time.
func (t *tracer) attribution(r *report, title string, layers []string, ops int, e2e time.Duration) {
	if ops == 0 {
		return
	}
	per := func(d time.Duration) float64 { return us(d) / float64(ops) }
	total := per(e2e)
	r.printf("attribution: %s (%d ops, untraced end-to-end %.1f us/op)", title, ops, total)
	r.printf("  %-28s %12s %8s", "layer", "self us/op", "share")
	var sum time.Duration
	for _, l := range layers {
		d := t.self[l]
		sum += d
		r.printf("  %-28s %12.1f %7.1f%%", l, per(d), 100*ratio(per(d), total))
	}
	rem := e2e - sum
	r.printf("  %-28s %12.1f %7.1f%%", "unexplained remainder", per(rem), 100*ratio(per(rem), total))
	r.printf("  %-28s %12.1f %7.1f%%", "total", total, 100.0)
}

// batchExprs lists the expressions of spec the executors compile into
// batch kernels: the filter, each aggregate's input and each output.
func batchExprs(spec core.QuerySpec) []expr.Expr {
	var es []expr.Expr
	if spec.Filter != nil {
		es = append(es, spec.Filter)
	}
	for _, a := range spec.Aggs {
		if a.E != nil {
			es = append(es, a.E)
		}
	}
	for _, o := range spec.Output {
		es = append(es, o.E)
	}
	return es
}

// kernelCache mirrors the executors' compiled-kernel caches, which key
// on expr.BatchKey: an op whose every key was seen before compiles
// nothing.
type kernelCache struct {
	seen map[string]bool
}

// visit compiles op's kernels under a span when any key is new and
// returns the compile time (0 on a full cache hit).
func (k *kernelCache) visit(tr *tracer, op int, parent string, es []expr.Expr) time.Duration {
	var keys []string
	miss := false
	for _, e := range es {
		if key, ok := expr.BatchKey(e); ok {
			keys = append(keys, key)
			miss = miss || !k.seen[key]
		}
	}
	if !miss {
		tr.add("expr.kernel_reuse_ratio", 1)
		return 0
	}
	tr.add("expr.kernel_reuse_ratio", 0)
	d := tr.do(op, "expr.compile_batch", parent, func() {
		for _, e := range es {
			expr.CompileBatch(e)
		}
	})
	tr.addN("expr.compile_batch_us", us(d), float64(len(es)))
	for _, key := range keys {
		k.seen[key] = true
	}
	return d
}

// simCall is one sim.Server call the program made: Serve (k = 1) or
// ServeRun of k identical requests.
type simCall struct {
	units int64
	k     int
}

// simCalls rebuilds, from a traced run's events, the sim.Server calls
// the same run makes untraced. A tracer makes ServeRun emit one event
// per request, all with the same server, ready time and size; such a
// run of events, when its first request did not wait, is one ServeRun
// call (the closed form needs idle lanes). Every other event is one
// Serve call.
type simCalls struct {
	calls    []simCall
	events   int64
	last     sim.TraceEvent
	joinable bool // the last call may grow into a ServeRun
}

func (c *simCalls) record(ev sim.TraceEvent) {
	c.events++
	if c.joinable && ev.Server == c.last.Server && ev.Ready == c.last.Ready && ev.Units == c.last.Units {
		c.calls[len(c.calls)-1].k++
	} else {
		c.calls = append(c.calls, simCall{units: ev.Units, k: 1})
		c.joinable = ev.Start == ev.Ready
	}
	c.last = ev
}

func (c *simCalls) reset() {
	c.calls = c.calls[:0]
	c.events = 0
	c.joinable = false
}

// simReplay re-issues calls on a private sim.Server, leaving out the
// first skip single Serves (those a rung above already made), and
// times the discrete-event core the run exercised.
func simReplay(tr *tracer, op int, parent string, srv *sim.Server, calls []simCall, skip int64) time.Duration {
	var todo []simCall
	for _, c := range calls {
		if c.k == 1 && skip > 0 {
			skip--
			continue
		}
		todo = append(todo, c)
	}
	if len(todo) == 0 {
		return 0
	}
	d := tr.do(op, "sim.serve", parent, func() {
		srv.Reset()
		var ready time.Duration
		for _, c := range todo {
			if c.k > 1 {
				ready = srv.ServeRun(ready, c.units, c.k)
			} else {
				ready = srv.Serve(ready, c.units)
			}
		}
	})
	tr.addN("sim.serve_ns", float64(d.Nanoseconds()), float64(len(todo)))
	return d
}

// engineLadder runs one engine op and then each lower layer's public
// entry on the same data: the ladder below core.Engine.Run. Three
// clones of the loaded engine see the same ops in the same order, so
// their state matches op by op: eng is timed and runs with no tracer
// (a tracer turns off sim.Server.ServeRun's closed form); count runs
// the op again, untimed, under a tracer that counts its sim calls; src
// only serves the pages the ssd, bufpool and page rungs replay.
type engineLadder struct {
	tr    *tracer
	r     *report
	eng   *core.Engine
	count *core.Engine
	src   *core.Engine
	calls simCalls
	// readCalls is how many sim calls one ssd.Device.ReadPage makes
	// (-1 until measured on the first rung).
	readCalls int64
	// hitPool holds every page a hit replays; missPool takes the
	// misses and inserts, under LBAs no table uses.
	hitPool, missPool *bufpool.Pool
	fake              int64
	data              map[int64][]byte // src's page bytes by LBA
	sim               *sim.Server
	kern              kernelCache
	col               []int64
	bcol              [][]byte
	cloneTime         time.Duration // the first of the three clones
}

func newEngineLadder(tr *tracer, r *report, base *core.Engine) (*engineLadder, error) {
	l := &engineLadder{
		tr:        tr,
		r:         r,
		readCalls: -1,
		hitPool:   bufpool.New(base.Pool().Capacity(), nil),
		missPool:  bufpool.New(base.Pool().Capacity(), nil),
		fake:      1 << 40,
		data:      make(map[int64][]byte),
		sim:       sim.NewServer("ladder", sim.GHz(1)),
		kern:      kernelCache{seen: make(map[string]bool)},
	}
	var err error
	l.cloneTime = timed(func() { l.eng, err = base.Clone() })
	if err != nil {
		return nil, err
	}
	if l.count, err = base.Clone(); err != nil {
		return nil, err
	}
	if l.src, err = base.Clone(); err != nil {
		return nil, err
	}
	l.count.SetTracer(l.calls.record)
	return l, nil
}

// tablePages lists the LBAs and schema of one table.
type tablePages struct {
	schema *schema.Schema
	lbas   []int64
	cols   []int // columns the statement text names
}

func (l *engineLadder) pagesOf(spec core.QuerySpec, text string) ([]tablePages, error) {
	names := []string{spec.Table}
	if spec.Join != nil {
		names = append(names, spec.Join.BuildTable)
	}
	var out []tablePages
	for _, n := range names {
		t, err := l.eng.Table(n)
		if err != nil {
			return nil, err
		}
		tp := tablePages{schema: t.File.Schema()}
		for i := int64(0); i < t.File.Pages(); i++ {
			tp.lbas = append(tp.lbas, t.File.StartLBA()+i)
		}
		for i, c := range tp.schema.Columns() {
			if strings.Contains(text, c.Name) {
				tp.cols = append(tp.cols, i)
			}
		}
		out = append(out, tp)
	}
	return out, nil
}

// pageRef is one page a rung replays: its LBA and its table.
type pageRef struct {
	lba int64
	tp  *tablePages
}

// firstPages returns n pages of the op's tables, in table order,
// cycling when n exceeds them.
func firstPages(tables []tablePages, n int64) []pageRef {
	var all []pageRef
	for i := range tables {
		for _, lba := range tables[i].lbas {
			all = append(all, pageRef{lba: lba, tp: &tables[i]})
		}
	}
	if len(all) == 0 {
		return nil
	}
	out := make([]pageRef, n)
	for i := range out {
		out[i] = all[i%len(all)]
	}
	return out
}

// page returns src's bytes for lba, reading it (untimed) on first use.
func (l *engineLadder) page(lba int64) ([]byte, error) {
	if d, ok := l.data[lba]; ok {
		return d, nil
	}
	d, _, err := l.src.SSD().ReadPage(lba, 0)
	if err != nil {
		return nil, err
	}
	l.data[lba] = d
	return d, nil
}

// run executes spec under mode as the core.engine_run rung, then walks
// the layers beneath it, sized by what the run did: the pages it read
// from flash (NAND reads), and on host placement its buffer-pool hits,
// misses and evictions. It attributes the run's self time to exec
// (host placement) or device (device placement) and returns the run's
// result and its wall time.
func (l *engineLadder) run(op int, spec core.QuerySpec, mode core.Mode, text string) (*core.Result, time.Duration, error) {
	tr := l.tr
	compile := l.kern.visit(tr, op, "core.engine_run", batchExprs(spec))
	var decide time.Duration
	if mode == core.Auto {
		var dec opt.Decision
		var err error
		decide = tr.do(op, "opt.decide", "core.engine_run", func() { dec, err = l.eng.Decide(spec) })
		if err != nil {
			return nil, 0, err
		}
		tr.add("opt.decide_us", us(decide))
		pushed := 0.0
		if dec.Pushdown {
			pushed = 1
		}
		tr.add("opt.pushdown_ratio", pushed)
	}

	l.calls.reset()
	counted, err := l.count.Run(spec, mode)
	if err != nil {
		return nil, 0, err
	}
	ssdDev := l.eng.SSD()
	nand0, pool0 := ssdDev.NANDStats(), l.eng.Pool().Stats()
	var res *core.Result
	runT := tr.do(op, "core.engine_run", "session", func() { res, err = l.eng.Run(spec, mode) })
	if err != nil {
		return nil, 0, err
	}
	nand1, pool1 := ssdDev.NANDStats(), l.eng.Pool().Stats()
	if !bytes.Equal(encodeRows(counted.Rows), encodeRows(res.Rows)) || counted.Placement != res.Placement {
		l.r.mismatch("ladder op %d: the traced counting run differs from the untraced run", op)
	}
	flash := nand1.Reads - nand0.Reads
	hits, misses := pool1.Hits-pool0.Hits, pool1.Misses-pool0.Misses
	evictions := pool1.Evictions - pool0.Evictions
	tr.add("nand.pages_read_per_op", float64(flash))
	tr.add("sim.events_per_op", float64(l.calls.events))
	host := res.Placement == core.RanHost
	if host {
		tr.add("core.engine_run_ms.host", ms(runT))
		tr.add("exec.tuples_per_op", float64(res.HostStats.RowsScanned))
		tr.addN("bufpool.hit_ratio", float64(hits), float64(hits+misses))
		tr.add("bufpool.evictions_per_op", float64(evictions))
	} else {
		tr.add("core.engine_run_ms.device", ms(runT))
	}

	tables, err := l.pagesOf(spec, text)
	if err != nil {
		return nil, 0, err
	}
	read := firstPages(tables, flash)
	if l.readCalls < 0 && len(read) > 0 {
		var c simCalls
		l.src.SSD().SetTracer(c.record)
		_, err = l.page(read[0].lba)
		l.src.SSD().SetTracer(nil)
		if err != nil {
			return nil, 0, err
		}
		l.readCalls = int64(len(c.calls))
	}
	ssdT := tr.do(op, "ssd.read_page", "core.engine_run", func() {
		for _, p := range read {
			d, _, e := l.src.SSD().ReadPage(p.lba, 0)
			if e != nil && err == nil {
				err = e
			}
			l.data[p.lba] = d
		}
	})
	if err != nil {
		return nil, 0, err
	}
	tr.addN("ssd.read_page_us", us(ssdT), float64(len(read)))

	// The pages the run bound: every pool hit and every page read on
	// host placement; the pages read from flash on device placement.
	bound := read
	var poolT time.Duration
	if host {
		hit := firstPages(tables, hits)
		for _, p := range hit {
			d, err := l.page(p.lba)
			if err != nil {
				return nil, 0, err
			}
			if !l.hitPool.Contains(p.lba) && l.hitPool.PutBorrowed(p.lba, d) == nil {
				l.hitPool.Unpin(p.lba, false)
			}
		}
		// Fill missPool so that inserting the read pages evicts as
		// many frames as the run's pool evicted.
		l.missPool.Clear()
		capacity := int64(l.missPool.Capacity())
		fill := min(max(capacity-flash+evictions, 0), capacity)
		var filler []byte
		if len(read) > 0 {
			filler = l.data[read[0].lba]
		}
		for i := int64(0); i < fill && filler != nil; i++ {
			l.fake++
			if l.missPool.PutBorrowed(l.fake, filler) == nil {
				l.missPool.Unpin(l.fake, false)
			}
		}
		poolT = tr.do(op, "bufpool.get", "core.engine_run", func() {
			for _, p := range hit {
				if _, ok := l.hitPool.Get(p.lba); ok {
					l.hitPool.Unpin(p.lba, false)
				}
			}
			for i, p := range read {
				l.fake++
				if int64(i) < misses {
					l.missPool.Get(l.fake)
				}
				if l.missPool.PutBorrowed(l.fake, l.data[p.lba]) == nil {
					l.missPool.Unpin(l.fake, false)
				}
			}
		})
		// Per pool call: each Get, hit or miss, and each insert.
		tr.addN("bufpool.get_ns", float64(poolT.Nanoseconds()), float64(hits+misses+flash))
		bound = append(hit, read...)
	}

	readers := make([]*page.Reader, len(bound))
	datas := make([][]byte, len(bound))
	for i, p := range bound {
		readers[i] = page.ReaderFor(p.tp.schema)
		if datas[i], err = l.page(p.lba); err != nil {
			return nil, 0, err
		}
	}
	bindT := tr.do(op, "page.bind", "core.engine_run", func() {
		for i, rd := range readers {
			if e := rd.Bind(datas[i]); e != nil && err == nil {
				err = e
			}
		}
	})
	if err != nil {
		return nil, 0, err
	}
	tr.addN("page.bind_us", us(bindT), float64(len(bound)))
	decodeT := tr.do(op, "page.decode", "core.engine_run", func() {
		for i, p := range bound {
			for _, c := range p.tp.cols {
				if p.tp.schema.Column(c).Kind == schema.Char {
					l.bcol = readers[i].BytesColumnInto(c, l.bcol)
				} else {
					l.col = readers[i].Int64ColumnInto(c, l.col)
				}
			}
		}
	})
	tr.addN("page.decode_us", us(decodeT), float64(len(bound)))
	simT := simReplay(tr, op, "core.engine_run", l.sim, l.calls.calls, flash*max(l.readCalls, 0))

	self := runT - compile - decide - ssdT - poolT - bindT - decodeT - simT
	if host {
		tr.attribute("exec", self)
		tr.add("exec.self_ms", ms(self))
	} else {
		tr.attribute("device", self)
		tr.add("device.self_ms", ms(self))
	}
	tr.attribute("expr.compile_batch", compile)
	tr.attribute("opt.decide", decide)
	tr.attribute("ssd.read_page", ssdT)
	tr.attribute("bufpool", poolT)
	tr.attribute("page.bind", bindT)
	tr.attribute("page.decode", decodeT)
	tr.attribute("sim.serve", simT)
	return res, runT, nil
}

// engineLayers is the attribution table's row order below the engine.
var engineLayers = []string{
	"opt.decide", "expr.compile_batch", "exec", "device",
	"bufpool", "page.bind", "page.decode", "ssd.read_page", "sim.serve",
}

// spanErr formats a ladder failure with its op.
func spanErr(op int, what string, err error) error {
	return fmt.Errorf("ladder op %d: %s: %w", op, what, err)
}
