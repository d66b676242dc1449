package engine

import (
	"fmt"

	"bcrdb/internal/sqlparser"
	"bcrdb/internal/storage"
	"bcrdb/internal/types"
)

func (e *Engine) writable(ctx *ExecCtx) error {
	if ctx.Mode == ModeReadOnly || ctx.Rec == nil {
		return ErrReadOnlyCtx
	}
	return nil
}

func (e *Engine) execInsert(ctx *ExecCtx, s *sqlparser.Insert) (*Result, error) {
	if err := e.writable(ctx); err != nil {
		return nil, err
	}
	if err := e.checkWriteClass(ctx, s.Table); err != nil {
		return nil, err
	}
	t, err := e.store.Table(s.Table)
	if err != nil {
		return nil, err
	}
	schema := t.Schema()

	// Map the statement's column list to table ordinals.
	var ords []int
	if len(s.Columns) == 0 {
		ords = make([]int, len(schema.Columns))
		for i := range ords {
			ords[i] = i
		}
	} else {
		seen := make(map[int]bool)
		for _, c := range s.Columns {
			ord := schema.ColIndex(c)
			if ord < 0 {
				return nil, fmt.Errorf("engine: column %q not in table %s", c, s.Table)
			}
			if seen[ord] {
				return nil, fmt.Errorf("engine: column %q listed twice", c)
			}
			seen[ord] = true
			ords = append(ords, ord)
		}
	}

	env := &evalEnv{ctx: ctx}
	n := 0
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(ords) {
			return nil, fmt.Errorf("engine: INSERT has %d values for %d columns", len(exprRow), len(ords))
		}
		row := make(types.Row, len(schema.Columns))
		filled := make([]bool, len(schema.Columns))
		for i, ex := range exprRow {
			v, err := env.eval(ex)
			if err != nil {
				return nil, err
			}
			row[ords[i]] = v
			filled[ords[i]] = true
		}
		for i, c := range schema.Columns {
			if !filled[i] {
				if c.HasDefault {
					row[i] = c.Default
				} else {
					row[i] = types.Null()
				}
			}
		}
		if _, err := e.store.Insert(ctx.Rec, s.Table, row); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Affected: n}, nil
}

func (e *Engine) execUpdate(ctx *ExecCtx, s *sqlparser.Update) (*Result, error) {
	if err := e.writable(ctx); err != nil {
		return nil, err
	}
	if err := e.checkWriteClass(ctx, s.Table); err != nil {
		return nil, err
	}
	t, err := e.store.Table(s.Table)
	if err != nil {
		return nil, err
	}
	schema := t.Schema()

	// Resolve SET targets up front.
	setOrds := make([]int, len(s.Set))
	for i, sc := range s.Set {
		ord := schema.ColIndex(sc.Column)
		if ord < 0 {
			return nil, fmt.Errorf("engine: column %q not in table %s", sc.Column, s.Table)
		}
		setOrds[i] = ord
	}

	vers, rs, err := e.scanForWrite(ctx, s.Table, s.Where)
	if err != nil {
		return nil, err
	}
	n := 0
	env := evalEnv{ctx: ctx, rs: rs}
	for _, v := range vers {
		newRow := v.Data.Clone()
		env.row = v.Data
		for i, sc := range s.Set {
			val, err := env.eval(sc.Value)
			if err != nil {
				return nil, err
			}
			newRow[setOrds[i]] = val
		}
		if err := e.store.MarkDelete(ctx.Rec, s.Table, v.ID); err != nil {
			return nil, err
		}
		if _, err := e.store.Insert(ctx.Rec, s.Table, newRow); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Affected: n}, nil
}

func (e *Engine) execDelete(ctx *ExecCtx, s *sqlparser.Delete) (*Result, error) {
	if err := e.writable(ctx); err != nil {
		return nil, err
	}
	if err := e.checkWriteClass(ctx, s.Table); err != nil {
		return nil, err
	}
	vers, _, err := e.scanForWrite(ctx, s.Table, s.Where)
	if err != nil {
		return nil, err
	}
	for _, v := range vers {
		if err := e.store.MarkDelete(ctx.Rec, s.Table, v.ID); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(vers)}, nil
}

// CreateTableWithDefaults is used by DDL execution to evaluate constant
// DEFAULT expressions at creation time (keeping them deterministic).
func evalDefault(ctx *ExecCtx, e *Engine, x sqlparser.Expr) (types.Value, error) {
	v, ok := e.constValue(ctx, x)
	if !ok {
		return types.Null(), fmt.Errorf("engine: DEFAULT must be a constant expression")
	}
	return v, nil
}

// storageColumns converts parser column definitions, evaluating defaults.
func (e *Engine) storageColumns(ctx *ExecCtx, defs []sqlparser.ColumnDef) ([]storage.Column, error) {
	out := make([]storage.Column, 0, len(defs))
	for _, c := range defs {
		col := storage.Column{Name: c.Name, Type: c.Type, NotNull: c.NotNull}
		if c.Default != nil {
			v, err := evalDefault(ctx, e, c.Default)
			if err != nil {
				return nil, err
			}
			cv, err := types.CoerceToKind(v, c.Type)
			if err != nil {
				return nil, fmt.Errorf("engine: DEFAULT for %s: %v", c.Name, err)
			}
			col.HasDefault = true
			col.Default = cv
		}
		out = append(out, col)
	}
	return out, nil
}
