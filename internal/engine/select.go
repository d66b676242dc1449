package engine

import (
	"fmt"
	"sort"

	"bcrdb/internal/codec"
	"bcrdb/internal/index"
	"bcrdb/internal/sqlparser"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

func (e *Engine) execSelect(ctx *ExecCtx, s *sqlparser.Select) (*Result, error) {
	// FROM-less select: evaluate items once against the empty relation.
	if s.From == nil {
		env := &evalEnv{ctx: ctx}
		var row types.Row
		var cols []string
		for _, item := range s.Items {
			if item.Star {
				return nil, fmt.Errorf("engine: SELECT * requires a FROM clause")
			}
			v, err := env.eval(item.Expr)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			cols = append(cols, itemName(item))
		}
		return &Result{Cols: cols, Rows: []types.Row{row}}, nil
	}

	if s.Provenance && (ctx.tracking()) {
		return nil, fmt.Errorf("engine: provenance queries are read-only and cannot run inside contracts")
	}

	conjuncts := splitConjuncts(s.Where)
	rs, rows, err := e.scanBase(ctx, s.From.Table, s.From.Alias, s.Where, conjuncts, s.Provenance)
	if err != nil {
		return nil, err
	}
	for _, j := range s.Joins {
		rs, rows, err = e.execJoin(ctx, rs, rows, j, s.Where, conjuncts, s.Provenance)
		if err != nil {
			return nil, err
		}
	}

	// Eager name resolution: bad column references must fail even when
	// the input is empty (PostgreSQL semantics), instead of lazily on
	// the first row.
	if err := e.validateRefs(ctx, rs, s); err != nil {
		return nil, err
	}

	// WHERE filter over the joined relation.
	if s.Where != nil {
		kept := rows[:0]
		env := evalEnv{ctx: ctx, rs: rs}
		for _, r := range rows {
			env.row = r
			v, err := env.eval(s.Where)
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				kept = append(kept, r)
			}
		}
		rows = kept
	}

	items, err := expandItems(s, rs)
	if err != nil {
		return nil, err
	}

	grouped := len(s.GroupBy) > 0
	if !grouped {
		for _, it := range items {
			if sqlparser.HasAggregate(it.Expr) {
				grouped = true
				break
			}
		}
		if !grouped && s.Having != nil {
			grouped = true
		}
	}

	var out *Result
	if grouped {
		out, err = e.projectGrouped(ctx, s, items, rs, rows)
	} else {
		out, err = e.projectPlain(ctx, s, items, rs, rows)
	}
	if err != nil {
		return nil, err
	}

	if s.Distinct {
		out.Rows = dedupeRows(out.Rows, len(out.Cols))
	}

	// ORDER BY keys were attached as hidden trailing columns by the
	// projection phases; sort, then strip.
	nOrder := len(s.OrderBy)
	if nOrder > 0 {
		descs := make([]bool, nOrder)
		for i, o := range s.OrderBy {
			descs[i] = o.Desc
		}
		w := len(out.Cols)
		sort.SliceStable(out.Rows, func(i, j int) bool {
			a, b := out.Rows[i], out.Rows[j]
			for k := 0; k < nOrder; k++ {
				c := types.Compare(a[w+k], b[w+k])
				if c != 0 {
					if descs[k] {
						return c > 0
					}
					return c < 0
				}
			}
			// Total tie-break over the visible columns keeps the order —
			// and therefore LIMIT results — identical on every replica.
			return types.CompareKeys(types.Key(a[:w]), types.Key(b[:w])) < 0
		})
		for i := range out.Rows {
			out.Rows[i] = out.Rows[i][:w]
		}
	}

	// LIMIT / OFFSET.
	if s.Limit != nil || s.Offset != nil {
		if s.Limit != nil && nOrder == 0 && ctx.tracking() {
			return nil, ErrLimitNeedsOrder
		}
		offset := int64(0)
		if s.Offset != nil {
			v, ok := e.constValue(ctx, s.Offset)
			if !ok || v.Kind() != types.KindInt || v.Int() < 0 {
				return nil, fmt.Errorf("engine: OFFSET must be a non-negative integer")
			}
			offset = v.Int()
		}
		limit := int64(len(out.Rows))
		if s.Limit != nil {
			v, ok := e.constValue(ctx, s.Limit)
			if !ok || v.Kind() != types.KindInt || v.Int() < 0 {
				return nil, fmt.Errorf("engine: LIMIT must be a non-negative integer")
			}
			limit = v.Int()
		}
		if offset > int64(len(out.Rows)) {
			offset = int64(len(out.Rows))
		}
		end := offset + limit
		if end > int64(len(out.Rows)) {
			end = int64(len(out.Rows))
		}
		out.Rows = out.Rows[offset:end]
	}
	return out, nil
}

// validateRefs checks that every column reference in the query's main
// clauses resolves against the joined relation (or a bound procedure
// variable / parameter).
func (e *Engine) validateRefs(ctx *ExecCtx, rs *relSchema, s *sqlparser.Select) error {
	check := func(x sqlparser.Expr) error {
		var bad error
		sqlparser.WalkExpr(x, func(n sqlparser.Expr) {
			if bad != nil {
				return
			}
			c, ok := n.(*sqlparser.ColumnRef)
			if !ok {
				return
			}
			_, err := rs.resolve(c.Table, c.Column)
			if err == nil {
				return
			}
			if c.Table == "" && ctx.Vars != nil {
				if _, isVar := ctx.Vars[c.Column]; isVar {
					return
				}
			}
			bad = err
		})
		return bad
	}
	for _, it := range s.Items {
		if it.Star {
			continue
		}
		if err := check(it.Expr); err != nil {
			return err
		}
	}
	if err := check(s.Where); err != nil {
		return err
	}
	for _, g := range s.GroupBy {
		if err := check(g); err != nil {
			return err
		}
	}
	if err := check(s.Having); err != nil {
		return err
	}
	for _, o := range s.OrderBy {
		// ORDER BY may name an output alias; skip bare names that match.
		if c, ok := o.Expr.(*sqlparser.ColumnRef); ok && c.Table == "" {
			named := false
			for _, it := range s.Items {
				if itemName(it) == c.Column {
					named = true
					break
				}
			}
			if named {
				continue
			}
		}
		if l, ok := o.Expr.(*sqlparser.Literal); ok && l.Val.Kind() == types.KindInt {
			continue // positional
		}
		if err := check(o.Expr); err != nil {
			return err
		}
	}
	return nil
}

// itemName derives the output column name for a select item.
func itemName(item sqlparser.SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	switch x := item.Expr.(type) {
	case *sqlparser.ColumnRef:
		return x.Column
	case *sqlparser.FuncCall:
		return lowerASCII(x.Name)
	default:
		return "?column?"
	}
}

func lowerASCII(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

// expandItems replaces * and t.* with explicit column references.
func expandItems(s *sqlparser.Select, rs *relSchema) ([]sqlparser.SelectItem, error) {
	var out []sqlparser.SelectItem
	for _, item := range s.Items {
		if !item.Star {
			out = append(out, item)
			continue
		}
		matched := false
		for _, c := range rs.cols {
			if item.Table != "" && c.alias != item.Table {
				continue
			}
			matched = true
			out = append(out, sqlparser.SelectItem{
				Expr:  &sqlparser.ColumnRef{Table: c.alias, Column: c.name},
				Alias: c.name,
			})
		}
		if !matched {
			return nil, fmt.Errorf("engine: unknown table %q in %s.*", item.Table, item.Table)
		}
	}
	return out, nil
}

// projectPlain evaluates items per input row, appending hidden ORDER BY
// key columns.
func (e *Engine) projectPlain(ctx *ExecCtx, s *sqlparser.Select, items []sqlparser.SelectItem, rs *relSchema, rows []types.Row) (*Result, error) {
	cols := make([]string, len(items))
	for i, it := range items {
		cols[i] = itemName(it)
	}
	orderExprs := resolveOrderExprs(s, items)
	out := make([]types.Row, 0, len(rows))
	env := evalEnv{ctx: ctx, rs: rs}
	for _, r := range rows {
		env.row = r
		orow := make(types.Row, 0, len(items)+len(orderExprs))
		for _, it := range items {
			v, err := env.eval(it.Expr)
			if err != nil {
				return nil, err
			}
			orow = append(orow, v)
		}
		for _, oe := range orderExprs {
			v, err := env.eval(oe)
			if err != nil {
				return nil, err
			}
			orow = append(orow, v)
		}
		out = append(out, orow)
	}
	return &Result{Cols: cols, Rows: out}, nil
}

// resolveOrderExprs maps ORDER BY expressions to evaluable expressions:
// bare names matching an item alias resolve to that item's expression,
// and integer literals resolve positionally.
func resolveOrderExprs(s *sqlparser.Select, items []sqlparser.SelectItem) []sqlparser.Expr {
	out := make([]sqlparser.Expr, 0, len(s.OrderBy))
	for _, o := range s.OrderBy {
		e := o.Expr
		if c, ok := e.(*sqlparser.ColumnRef); ok && c.Table == "" {
			for _, it := range items {
				if itemName(it) == c.Column && it.Expr != nil {
					e = it.Expr
					break
				}
			}
		}
		if l, ok := e.(*sqlparser.Literal); ok && l.Val.Kind() == types.KindInt {
			n := int(l.Val.Int())
			if n >= 1 && n <= len(items) {
				e = items[n-1].Expr
			}
		}
		out = append(out, e)
	}
	return out
}

// aggSpec describes one aggregate call discovered in the query.
type aggSpec struct {
	call *sqlparser.FuncCall
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	count    int64
	sumI     int64
	sumF     float64
	isFloat  bool
	min, max types.Value
	distinct map[string]bool
}

func (a *aggState) add(spec *aggSpec, v types.Value) error {
	f := spec.call
	if f.Star {
		a.count++
		return nil
	}
	if v.IsNull() {
		return nil
	}
	if f.Distinct {
		if a.distinct == nil {
			a.distinct = make(map[string]bool)
		}
		b := codec.NewBuf(16)
		b.Value(v)
		k := string(b.Bytes())
		if a.distinct[k] {
			return nil
		}
		a.distinct[k] = true
	}
	switch f.Name {
	case "COUNT":
		a.count++
	case "SUM", "AVG":
		if !v.IsNumeric() {
			return fmt.Errorf("engine: %s on %s", f.Name, v.Kind())
		}
		a.count++
		if v.Kind() == types.KindFloat {
			if !a.isFloat {
				a.sumF = float64(a.sumI)
				a.isFloat = true
			}
			a.sumF += v.Float()
		} else if a.isFloat {
			a.sumF += v.Float()
		} else {
			a.sumI += v.Int()
		}
	case "MIN":
		if a.min.IsNull() || types.Compare(v, a.min) < 0 {
			a.min = v
		}
		a.count++
	case "MAX":
		if a.max.IsNull() || types.Compare(v, a.max) > 0 {
			a.max = v
		}
		a.count++
	default:
		return fmt.Errorf("engine: unknown aggregate %s", f.Name)
	}
	return nil
}

func (a *aggState) result(spec *aggSpec) types.Value {
	f := spec.call
	switch f.Name {
	case "COUNT":
		return types.NewInt(a.count)
	case "SUM":
		if a.count == 0 {
			return types.Null()
		}
		if a.isFloat {
			return types.NewFloat(a.sumF)
		}
		return types.NewInt(a.sumI)
	case "AVG":
		if a.count == 0 {
			return types.Null()
		}
		if a.isFloat {
			return types.NewFloat(a.sumF / float64(a.count))
		}
		return types.NewFloat(float64(a.sumI) / float64(a.count))
	case "MIN":
		return a.min
	case "MAX":
		return a.max
	}
	return types.Null()
}

// projectGrouped evaluates a grouped query: group rows by the GROUP BY
// keys, accumulate aggregates, validate that non-aggregate references are
// grouping expressions, then emit one row per group in key order.
func (e *Engine) projectGrouped(ctx *ExecCtx, s *sqlparser.Select, items []sqlparser.SelectItem, rs *relSchema, rows []types.Row) (*Result, error) {
	orderExprs := resolveOrderExprs(s, items)

	// Discover aggregate calls across items, HAVING and ORDER BY.
	var specs []*aggSpec
	specOf := make(map[*sqlparser.FuncCall]int)
	collect := func(x sqlparser.Expr) {
		sqlparser.WalkExpr(x, func(n sqlparser.Expr) {
			if f, ok := n.(*sqlparser.FuncCall); ok && sqlparser.AggregateFuncs[f.Name] {
				if _, seen := specOf[f]; !seen {
					specOf[f] = len(specs)
					specs = append(specs, &aggSpec{call: f})
				}
			}
		})
	}
	for _, it := range items {
		collect(it.Expr)
	}
	collect(s.Having)
	for _, oe := range orderExprs {
		collect(oe)
	}

	// Validate grouping references.
	groupKeys := make([]string, len(s.GroupBy))
	for i, g := range s.GroupBy {
		groupKeys[i] = exprKey(g)
	}
	var validate func(x sqlparser.Expr) error
	validate = func(x sqlparser.Expr) error {
		if x == nil {
			return nil
		}
		for _, gk := range groupKeys {
			if exprKey(x) == gk {
				return nil
			}
		}
		if f, ok := x.(*sqlparser.FuncCall); ok && sqlparser.AggregateFuncs[f.Name] {
			return nil
		}
		if c, ok := x.(*sqlparser.ColumnRef); ok {
			return fmt.Errorf("engine: column %q must appear in GROUP BY or an aggregate", c.Column)
		}
		// Recurse over direct children by type.
		var err error
		switch t := x.(type) {
		case *sqlparser.FuncCall:
			for _, a := range t.Args {
				if err = validate(a); err != nil {
					break
				}
			}
		case *sqlparser.Unary:
			err = validate(t.X)
		case *sqlparser.Binary:
			if err = validate(t.L); err == nil {
				err = validate(t.R)
			}
		case *sqlparser.IsNull:
			err = validate(t.X)
		case *sqlparser.InList:
			if err = validate(t.X); err == nil {
				for _, i := range t.List {
					if err = validate(i); err != nil {
						break
					}
				}
			}
		case *sqlparser.Between:
			if err = validate(t.X); err == nil {
				if err = validate(t.Lo); err == nil {
					err = validate(t.Hi)
				}
			}
		case *sqlparser.Like:
			if err = validate(t.X); err == nil {
				err = validate(t.Pattern)
			}
		case *sqlparser.CaseExpr:
			for _, w := range t.Whens {
				if err = validate(w.Cond); err != nil {
					break
				}
				if err = validate(w.Then); err != nil {
					break
				}
			}
			if err == nil {
				err = validate(t.Else)
			}
		case *sqlparser.Cast:
			err = validate(t.X)
		}
		return err
	}
	for _, it := range items {
		if err := validate(it.Expr); err != nil {
			return nil, err
		}
	}
	if err := validate(s.Having); err != nil {
		return nil, err
	}
	for _, oe := range orderExprs {
		if err := validate(oe); err != nil {
			return nil, err
		}
	}

	type group struct {
		key      types.Key
		firstRow types.Row
		aggs     []aggState
	}
	groups := make(map[string]*group)
	env := evalEnv{ctx: ctx, rs: rs}
	for _, r := range rows {
		env.row = r
		key := make(types.Key, len(s.GroupBy))
		for i, g := range s.GroupBy {
			v, err := env.eval(g)
			if err != nil {
				return nil, err
			}
			key[i] = v
		}
		b := codec.NewBuf(32)
		b.Row(types.Row(key))
		ks := string(b.Bytes())
		grp := groups[ks]
		if grp == nil {
			grp = &group{key: key, firstRow: r, aggs: make([]aggState, len(specs))}
			groups[ks] = grp
		}
		for i, spec := range specs {
			var v types.Value
			if !spec.call.Star {
				if len(spec.call.Args) != 1 {
					return nil, fmt.Errorf("engine: %s expects one argument", spec.call.Name)
				}
				var err error
				v, err = env.eval(spec.call.Args[0])
				if err != nil {
					return nil, err
				}
			}
			if err := grp.aggs[i].add(spec, v); err != nil {
				return nil, err
			}
		}
	}
	// Aggregate-only query over empty input yields one all-default group.
	if len(groups) == 0 && len(s.GroupBy) == 0 {
		groups[""] = &group{aggs: make([]aggState, len(specs)), firstRow: make(types.Row, len(rs.cols))}
	}

	// Emit groups in key order.
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return types.CompareKeys(groups[keys[i]].key, groups[keys[j]].key) < 0
	})

	cols := make([]string, len(items))
	for i, it := range items {
		cols[i] = itemName(it)
	}
	var out []types.Row
	for _, k := range keys {
		grp := groups[k]
		aggVals := make(map[*sqlparser.FuncCall]types.Value, len(specs))
		for i, spec := range specs {
			aggVals[spec.call] = grp.aggs[i].result(spec)
		}
		env.row, env.aggVals = grp.firstRow, aggVals
		if s.Having != nil {
			hv, err := env.eval(s.Having)
			if err != nil {
				return nil, err
			}
			if !truthy(hv) {
				continue
			}
		}
		orow := make(types.Row, 0, len(items)+len(orderExprs))
		for _, it := range items {
			v, err := env.eval(it.Expr)
			if err != nil {
				return nil, err
			}
			orow = append(orow, v)
		}
		for _, oe := range orderExprs {
			v, err := env.eval(oe)
			if err != nil {
				return nil, err
			}
			orow = append(orow, v)
		}
		out = append(out, orow)
	}
	return &Result{Cols: cols, Rows: out}, nil
}

// dedupeRows removes duplicate rows (comparing the visible width w),
// keeping first occurrences.
func dedupeRows(rows []types.Row, w int) []types.Row {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		b := codec.NewBuf(64)
		b.Row(r[:w])
		k := string(b.Bytes())
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// execJoin joins the accumulated left relation with one more table.
// where/whereConjuncts are the statement's WHERE (plan-cache key and
// bounds for the fallback right-side scan).
func (e *Engine) execJoin(ctx *ExecCtx, leftRS *relSchema, leftRows []types.Row, j sqlparser.Join, where sqlparser.Expr, whereConjuncts []sqlparser.Expr, provenance bool) (*relSchema, []types.Row, error) {
	if err := e.checkReadClass(ctx, j.Right.Table); err != nil {
		return nil, nil, err
	}
	rightTable, err := e.store.Table(j.Right.Table)
	if err != nil {
		return nil, nil, err
	}
	rightSchema := rightTable.Schema()
	rightRS := baseSchema(rightTable, j.Right.Alias, provenance)

	combined := &relSchema{}
	combined.cols = append(combined.cols, leftRS.cols...)
	combined.cols = append(combined.cols, rightRS.cols...)

	// Decompose ON into equality pairs (left expr = right column) and
	// residual conditions.
	onConjuncts := splitConjuncts(j.On)
	type eqPair struct {
		leftExpr sqlparser.Expr
		rightCol int // ordinal in right table
	}
	var eqs []eqPair
	var residual []sqlparser.Expr
	isRightCol := func(x sqlparser.Expr) (int, bool) {
		c, ok := x.(*sqlparser.ColumnRef)
		if !ok {
			return 0, false
		}
		if c.Table != "" && c.Table != j.Right.Alias {
			return 0, false
		}
		ord := rightSchema.ColIndex(c.Column)
		if ord < 0 {
			return 0, false
		}
		// Ambiguity guard: unqualified name must not also resolve on the left.
		if c.Table == "" {
			if _, err := leftRS.resolve("", c.Column); err == nil {
				return 0, false
			}
		}
		return ord, true
	}
	refsOnlyLeft := func(x sqlparser.Expr) bool {
		ok := true
		sqlparser.WalkExpr(x, func(n sqlparser.Expr) {
			if c, is := n.(*sqlparser.ColumnRef); is {
				if _, err := leftRS.resolve(c.Table, c.Column); err != nil {
					ok = false
				}
			}
		})
		return ok
	}
	for _, cj := range onConjuncts {
		b, isBin := cj.(*sqlparser.Binary)
		if isBin && b.Op == "=" {
			if ord, ok := isRightCol(b.R); ok && refsOnlyLeft(b.L) {
				eqs = append(eqs, eqPair{leftExpr: b.L, rightCol: ord})
				continue
			}
			if ord, ok := isRightCol(b.L); ok && refsOnlyLeft(b.R) {
				eqs = append(eqs, eqPair{leftExpr: b.R, rightCol: ord})
				continue
			}
		}
		residual = append(residual, cj)
	}

	// Pick an index on the right table covering a prefix of the eq cols.
	eqByOrd := make(map[int]sqlparser.Expr, len(eqs))
	for _, p := range eqs {
		if _, dup := eqByOrd[p.rightCol]; !dup {
			eqByOrd[p.rightCol] = p.leftExpr
		}
	}
	var lookupIx string
	var lookupOrds []int
	for _, name := range append([]string{rightTable.PrimaryIndexName()}, rightTable.Indexes()...) {
		cols, ok := rightTable.IndexCols(name)
		if !ok {
			continue
		}
		var ords []int
		for _, c := range cols {
			if _, ok := eqByOrd[c]; !ok {
				break
			}
			ords = append(ords, c)
		}
		if len(ords) > len(lookupOrds) {
			lookupIx, lookupOrds = name, ords
		}
	}

	onEnv := evalEnv{ctx: ctx, rs: combined}
	evalCombined := func(lrow, rrow types.Row) (bool, error) {
		full := make(types.Row, 0, len(lrow)+len(rrow))
		full = append(full, lrow...)
		full = append(full, rrow...)
		onEnv.row = full
		v, err := onEnv.eval(j.On)
		if err != nil {
			return false, err
		}
		return truthy(v), nil
	}

	var out []types.Row
	nullRight := make(types.Row, len(rightRS.cols))
	for i := range nullRight {
		nullRight[i] = types.Null()
	}

	if len(lookupOrds) > 0 && !provenance {
		// Index-nested-loop join: per-left-row point/prefix lookups.
		fullCols, _ := rightTable.IndexCols(lookupIx)
		lenv := evalEnv{ctx: ctx, rs: leftRS}
		for _, lrow := range leftRows {
			lenv.row = lrow
			key := make(types.Key, len(lookupOrds))
			skip := false
			for i, ord := range lookupOrds {
				v, err := lenv.eval(eqByOrd[ord])
				if err != nil {
					return nil, nil, err
				}
				if v.IsNull() {
					skip = true
					break
				}
				key[i] = v
			}
			matched := false
			if !skip {
				var rng index.Range
				if len(lookupOrds) == len(fullCols) {
					rng = index.PointRange(key)
				} else {
					rng = index.PrefixRange(key)
				}
				rrows, err := e.lookupRows(ctx, j.Right.Table, lookupIx, rng, &rightSchema)
				if err != nil {
					return nil, nil, err
				}
				for _, rrow := range rrows {
					ok, err := evalCombined(lrow, rrow)
					if err != nil {
						return nil, nil, err
					}
					if ok {
						matched = true
						full := make(types.Row, 0, len(lrow)+len(rrow))
						full = append(full, lrow...)
						full = append(full, rrow...)
						out = append(out, full)
					}
				}
			}
			if !matched && j.Kind == "LEFT" {
				full := make(types.Row, 0, len(lrow)+len(nullRight))
				full = append(full, lrow...)
				full = append(full, nullRight...)
				out = append(out, full)
			}
		}
		return combined, out, nil
	}

	// Fallback: materialize the right side once (bounds from WHERE), then
	// nested-loop. Disallowed when an index is mandatory.
	if ctx.tracking() && ctx.RequireIndex {
		return nil, nil, fmt.Errorf("%w: join on %s has no usable index", ErrNoIndex, j.Right.Table)
	}
	_, rightRows, err := e.scanBase(ctx, j.Right.Table, j.Right.Alias, where, whereConjuncts, provenance)
	if err != nil {
		return nil, nil, err
	}
	for _, lrow := range leftRows {
		matched := false
		for _, rrow := range rightRows {
			ok, err := evalCombined(lrow, rrow)
			if err != nil {
				return nil, nil, err
			}
			if ok {
				matched = true
				full := make(types.Row, 0, len(lrow)+len(rrow))
				full = append(full, lrow...)
				full = append(full, rrow...)
				out = append(out, full)
			}
		}
		if !matched && j.Kind == "LEFT" {
			full := make(types.Row, 0, len(lrow)+len(nullRight))
			full = append(full, lrow...)
			full = append(full, nullRight...)
			out = append(out, full)
		}
	}
	return combined, out, nil
}

// lookupRows reads the visible rows matching rng through the named index,
// sorted by primary key, with read/range tracking.
func (e *Engine) lookupRows(ctx *ExecCtx, table, ixName string, rng index.Range, schema *storage.Schema) ([]types.Row, error) {
	if ctx.tracking() {
		ctx.Rec.NoteRange(table, ixName, rng)
	}
	type hit struct {
		pk  types.Key
		ver *storage.RowVersion
	}
	var hits []hit
	err := e.store.ScanIndex(table, ixName, rng, ctx.selfID(), ctx.snapshotHeight(), storage.ScanVisible, func(v *storage.RowVersion) bool {
		hits = append(hits, hit{pk: schema.PKKey(v.Data), ver: v})
		return true
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(hits, func(i, j int) bool {
		return types.CompareKeys(hits[i].pk, hits[j].pk) < 0
	})
	rows := make([]types.Row, 0, len(hits))
	for _, h := range hits {
		if ctx.tracking() {
			ctx.Rec.NoteRead(table, h.ver.ID)
		}
		// Version data is immutable after insert; hand it out directly
		// (join combination always copies into a fresh combined row).
		rows = append(rows, h.ver.Data)
	}
	return rows, nil
}
