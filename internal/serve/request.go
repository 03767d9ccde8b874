// Package serve is the query service over the simulated Smart SSD
// cluster: an HTTP/JSON daemon whose wire protocol mirrors the paper's
// OPEN/GET/CLOSE session protocol one level up. POST /sessions opens a
// session (admission-controlled, so an overloaded server sheds load
// with 429 instead of queueing without bound), GET
// /sessions/{id}/result is the long-polling GET, and DELETE closes the
// session. Each session runs either on a private engine clone (cold, so
// results are independent of concurrency and arrival order) or on the
// shared partitioned cluster, with reads routed across replicas.
//
// Determinism. The service never reads the wall clock: long-polling
// waits on channels, deadlines compare simulated durations, and
// Retry-After is configuration. Response bodies carry only
// client-supplied tags and simulated measurements — never server
// session ids or scheduling-dependent values — so the body stream of a
// fixed workload is byte-identical however many clients race it.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
	"unicode/utf8"

	"smartssd/internal/core"
	"smartssd/internal/expr"
	"smartssd/internal/plan"
	"smartssd/internal/schema"
	"smartssd/internal/sql"
)

// Wire-protocol limits. Decoding enforces them before any parsing so a
// hostile body cannot make the server do unbounded work.
const (
	// MaxBodyBytes bounds a request body.
	MaxBodyBytes = 1 << 20
	// MaxTagLen bounds the client-supplied session tag.
	MaxTagLen = 128
	// MaxExprLen bounds any single expression string.
	MaxExprLen = 4096
	// MaxAggs bounds the aggregate list.
	MaxAggs = 16
	// MaxOutputCols bounds the projection list.
	MaxOutputCols = 32
	// MaxSetClauses bounds an update's SET list.
	MaxSetClauses = 16
	// MaxSQLLen bounds a SQL statement.
	MaxSQLLen = 8192
)

// Request is the wire form of one query session.
type Request struct {
	// Tag is the client's label for the session; it is echoed in every
	// response body (the session id is not, so bodies stay independent
	// of arrival order). Optional.
	Tag string `json:"tag,omitempty"`
	// SQL is a full statement in the SQL front end's grammar
	// (sql.Compile); the compiler lowers it to the same query spec the
	// structured fields describe, plus a selectivity estimate for the
	// pushdown planner. An EXPLAIN statement returns the plan report
	// instead of rows. Mutually exclusive with Table, Predicate, Aggs,
	// Output, and Update.
	SQL string `json:"sql,omitempty"`
	// Table names the catalogued table to query.
	Table string `json:"table,omitempty"`
	// Predicate is an optional filter: a boolean SQL expression over
	// the table's columns (expr.ParsePredicate).
	Predicate string `json:"predicate,omitempty"`
	// Aggs lists scalar aggregates; mutually exclusive with Output.
	Aggs []AggRequest `json:"aggs,omitempty"`
	// Output lists projection columns; mutually exclusive with Aggs.
	Output []OutputRequest `json:"output,omitempty"`
	// Update lists SET clauses for a transactional UPDATE session:
	// rows matching Predicate are rewritten through the write-ahead
	// log, and the session completes only after the commit's log flush
	// is durable. Cluster target only (engine sessions run on private
	// clones, which are immutable snapshots); mutually exclusive with
	// Aggs, Output, and Trace.
	Update []SetRequest `json:"update,omitempty"`
	// Target picks the backend: "engine" (default; a private clone per
	// worker) or "cluster" (the shared partitioned backend).
	Target string `json:"target,omitempty"`
	// Mode picks engine placement: "auto" (default), "host", "device",
	// or "hybrid". Ignored for cluster sessions (always pushdown).
	Mode string `json:"mode,omitempty"`
	// DeadlineNS bounds the session's simulated elapsed time in
	// nanoseconds; a run that finishes later reports the get-timeout
	// fault class instead of its rows. Zero means no deadline.
	DeadlineNS int64 `json:"deadline_ns,omitempty"`
	// Trace records the session's full resource timeline for
	// GET /debug/trace (engine sessions only).
	Trace bool `json:"trace,omitempty"`
}

// AggRequest is one scalar aggregate.
type AggRequest struct {
	// Kind is "sum", "count", "min", or "max", in any letter case.
	Kind string `json:"kind"`
	// Expr is the aggregated expression; required except for count.
	Expr string `json:"expr,omitempty"`
	// Name labels the output column; defaults to the lowercase kind.
	Name string `json:"name,omitempty"`
}

// OutputRequest is one projection column.
type OutputRequest struct {
	Name string `json:"name"`
	Expr string `json:"expr"`
}

// SetRequest is one SET clause of an update session: Column is
// assigned the value of Expr evaluated over the row's pre-update
// values.
type SetRequest struct {
	Column string `json:"column"`
	Expr   string `json:"expr"`
}

// Query is a decoded, validated, compiled request, ready to run.
type Query struct {
	Req      Request
	Filter   expr.Expr
	Aggs     []plan.AggSpec
	Output   []plan.OutputCol
	Sets     []core.SetClause
	Mode     core.Mode
	Cluster  bool
	Deadline time.Duration
	// Spec is the fully lowered query: the SQL path fills every field
	// (join, group by, order, limit, selectivity estimate); the
	// structured path fills the subset its fields describe.
	Spec core.QuerySpec
	// Columns overrides the result column labels when set (the SQL
	// path's output names, which include GROUP BY columns).
	Columns []string
	// Explain marks an EXPLAIN session: the response carries the plan
	// report instead of rows, and nothing executes.
	Explain bool
	// Compiled is the SQL compilation (nil for structured requests);
	// EXPLAIN sessions render it.
	Compiled *sql.Compiled
}

// SchemaSource resolves a table name to its row schema; both
// *core.Engine (via Table) and *core.Cluster (via Schema) satisfy it
// through small adapters in this package.
type SchemaSource interface {
	TableSchema(name string) (*schema.Schema, error)
}

// TargetSchemaSource is implemented by sources that serve more than one
// backend (the Server). DecodeRequest prefers it when available, so
// expressions compile against the catalog of the backend that will
// execute the session — never against a same-named table with a
// diverging schema on the other backend.
type TargetSchemaSource interface {
	SchemaSource
	// TargetTableSchema resolves name against the cluster catalog when
	// cluster is true, the engine catalog otherwise.
	TargetTableSchema(cluster bool, name string) (*schema.Schema, error)
}

// TableStatsSource is implemented by sources that can report per-column
// min/max stats for the executing backend's tables; the SQL path's
// selectivity estimator uses them when available.
type TableStatsSource interface {
	// TargetTableStats reports the load-time column stats of name on
	// the requested backend; ok is false when unknown.
	TargetTableStats(cluster bool, name string) ([]core.ColumnStats, bool)
}

// targetCatalog adapts a SchemaSource to the SQL compiler's catalog,
// pinned to the backend that will execute the session.
type targetCatalog struct {
	src     SchemaSource
	cluster bool
}

func (c targetCatalog) TableSchema(name string) (*schema.Schema, error) {
	if ts, ok := c.src.(TargetSchemaSource); ok {
		return ts.TargetTableSchema(c.cluster, name)
	}
	return c.src.TableSchema(name)
}

func (c targetCatalog) TableColumnStats(name string) ([]core.ColumnStats, bool) {
	if ts, ok := c.src.(TableStatsSource); ok {
		return ts.TargetTableStats(c.cluster, name)
	}
	return nil, false
}

// EngineSchemas adapts an engine's catalog to SchemaSource.
type EngineSchemas struct{ E *core.Engine }

// TableSchema resolves name against the engine's catalog.
func (s EngineSchemas) TableSchema(name string) (*schema.Schema, error) {
	t, err := s.E.Table(name)
	if err != nil {
		return nil, err
	}
	return t.File.Schema(), nil
}

// ClusterSchemas adapts a cluster's catalog to SchemaSource.
type ClusterSchemas struct{ C *core.Cluster }

// TableSchema resolves name against the cluster's catalog.
func (s ClusterSchemas) TableSchema(name string) (*schema.Schema, error) {
	return s.C.Schema(name)
}

// DecodeRequest parses, validates, and compiles one wire request.
// Unknown fields, out-of-bound sizes, unknown tables, and expressions
// that do not parse against the table's schema are all errors; a nil
// error means the query is fully compiled and safe to run.
func DecodeRequest(src SchemaSource, data []byte) (*Query, error) {
	if len(data) > MaxBodyBytes {
		return nil, fmt.Errorf("serve: body %d bytes exceeds %d", len(data), MaxBodyBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("serve: bad request body: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("serve: trailing data after request object")
	}
	if len(req.Tag) > MaxTagLen {
		return nil, fmt.Errorf("serve: tag longer than %d bytes", MaxTagLen)
	}
	if !utf8.ValidString(req.Tag) {
		return nil, fmt.Errorf("serve: tag is not valid UTF-8")
	}
	if req.Table == "" && req.SQL == "" {
		return nil, fmt.Errorf("serve: missing table")
	}

	q := &Query{Req: req}
	switch req.Target {
	case "", "engine":
		q.Cluster = false
	case "cluster":
		q.Cluster = true
	default:
		return nil, fmt.Errorf("serve: unknown target %q", req.Target)
	}
	switch req.Mode {
	case "", "auto":
		q.Mode = core.Auto
	case "host":
		q.Mode = core.ForceHost
	case "device":
		q.Mode = core.ForceDevice
	case "hybrid":
		q.Mode = core.ForceHybrid
	default:
		return nil, fmt.Errorf("serve: unknown mode %q", req.Mode)
	}
	if req.DeadlineNS < 0 {
		return nil, fmt.Errorf("serve: negative deadline_ns")
	}
	q.Deadline = time.Duration(req.DeadlineNS)
	if req.Trace && q.Cluster {
		return nil, fmt.Errorf("serve: trace is only supported for engine sessions")
	}

	if req.SQL != "" {
		if len(req.SQL) > MaxSQLLen {
			return nil, fmt.Errorf("serve: sql longer than %d bytes", MaxSQLLen)
		}
		if req.Table != "" || req.Predicate != "" ||
			len(req.Aggs) > 0 || len(req.Output) > 0 || len(req.Update) > 0 {
			return nil, fmt.Errorf("serve: sql is mutually exclusive with table, predicate, aggs, output, and update")
		}
		// The compiler binds against the catalog of the executing
		// backend, with that backend's load-time column stats feeding
		// the selectivity estimate.
		compiled, err := sql.Compile(targetCatalog{src: src, cluster: q.Cluster}, req.SQL)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if q.Cluster && (len(compiled.Spec.OrderBy) > 0 || compiled.Spec.Limit > 0) {
			return nil, fmt.Errorf("serve: cluster sessions do not support ORDER BY or LIMIT")
		}
		q.Spec = compiled.Spec
		q.Filter = compiled.Spec.Filter
		q.Aggs = compiled.Spec.Aggs
		q.Output = compiled.Spec.Output
		q.Columns = compiled.OutputNames
		q.Explain = compiled.Stmt.Explain
		q.Compiled = compiled
		q.Req.Table = compiled.Spec.Table
		return q, nil
	}

	// The target is pinned before the schema lookup so every expression
	// below compiles against the executing backend's catalog.
	var s *schema.Schema
	var err error
	if ts, ok := src.(TargetSchemaSource); ok {
		s, err = ts.TargetTableSchema(q.Cluster, req.Table)
	} else {
		s, err = src.TableSchema(req.Table)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}

	if req.Predicate != "" {
		if len(req.Predicate) > MaxExprLen {
			return nil, fmt.Errorf("serve: predicate longer than %d bytes", MaxExprLen)
		}
		q.Filter, err = expr.ParsePredicate(s, req.Predicate)
		if err != nil {
			return nil, fmt.Errorf("serve: predicate: %w", err)
		}
	}

	if len(req.Update) > 0 {
		// Update sessions mutate the shared partitioned backend; engine
		// sessions run on private clones, which are immutable snapshots
		// of the loaded dataset.
		if !q.Cluster {
			return nil, fmt.Errorf("serve: update sessions require the cluster target")
		}
		if len(req.Aggs) > 0 || len(req.Output) > 0 {
			return nil, fmt.Errorf("serve: update is mutually exclusive with aggs and output")
		}
		if len(req.Update) > MaxSetClauses {
			return nil, fmt.Errorf("serve: more than %d set clauses", MaxSetClauses)
		}
		for i, u := range req.Update {
			if u.Column == "" {
				return nil, fmt.Errorf("serve: set %d: missing column", i)
			}
			if s.ColumnIndex(u.Column) < 0 {
				return nil, fmt.Errorf("serve: set %d: unknown column %q", i, u.Column)
			}
			if u.Expr == "" {
				return nil, fmt.Errorf("serve: set %d: missing expr", i)
			}
			if len(u.Expr) > MaxExprLen {
				return nil, fmt.Errorf("serve: set %d: expr longer than %d bytes", i, MaxExprLen)
			}
			e, err := expr.Parse(s, u.Expr)
			if err != nil {
				return nil, fmt.Errorf("serve: set %d: %w", i, err)
			}
			q.Sets = append(q.Sets, core.SetClause{Column: u.Column, E: e})
		}
		return q, nil
	}

	if len(req.Aggs) > 0 && len(req.Output) > 0 {
		return nil, fmt.Errorf("serve: aggs and output are mutually exclusive")
	}
	if len(req.Aggs) == 0 && len(req.Output) == 0 {
		return nil, fmt.Errorf("serve: need at least one agg or output column")
	}
	if len(req.Aggs) > MaxAggs {
		return nil, fmt.Errorf("serve: more than %d aggs", MaxAggs)
	}
	if len(req.Output) > MaxOutputCols {
		return nil, fmt.Errorf("serve: more than %d output columns", MaxOutputCols)
	}
	for i, a := range req.Aggs {
		kind, ok := plan.AggKindByName(a.Kind)
		if !ok {
			return nil, fmt.Errorf("serve: agg %d: unknown kind %q", i, a.Kind)
		}
		spec := plan.AggSpec{Kind: kind, Name: a.Name}
		if kind == plan.Count {
			if a.Expr != "" {
				return nil, fmt.Errorf("serve: agg %d: count takes no expr", i)
			}
		} else {
			if a.Expr == "" {
				return nil, fmt.Errorf("serve: agg %d: %s needs an expr", i, a.Kind)
			}
			if len(a.Expr) > MaxExprLen {
				return nil, fmt.Errorf("serve: agg %d: expr longer than %d bytes", i, MaxExprLen)
			}
			spec.E, err = expr.Parse(s, a.Expr)
			if err != nil {
				return nil, fmt.Errorf("serve: agg %d: %w", i, err)
			}
		}
		if spec.Name == "" {
			spec.Name = kind.DefaultName()
		}
		q.Aggs = append(q.Aggs, spec)
	}
	for i, o := range req.Output {
		if o.Name == "" {
			return nil, fmt.Errorf("serve: output %d: missing name", i)
		}
		if o.Expr == "" {
			return nil, fmt.Errorf("serve: output %d: missing expr", i)
		}
		if len(o.Expr) > MaxExprLen {
			return nil, fmt.Errorf("serve: output %d: expr longer than %d bytes", i, MaxExprLen)
		}
		e, err := expr.Parse(s, o.Expr)
		if err != nil {
			return nil, fmt.Errorf("serve: output %d: %w", i, err)
		}
		q.Output = append(q.Output, plan.OutputCol{Name: o.Name, E: e})
	}
	// The structured path's spec leaves EstSelectivity zero — the
	// planner's default — so existing workloads keep their exact
	// placement decisions and response bytes.
	q.Spec = core.QuerySpec{
		Table:  req.Table,
		Filter: q.Filter,
		Output: q.Output,
		Aggs:   q.Aggs,
	}
	return q, nil
}
