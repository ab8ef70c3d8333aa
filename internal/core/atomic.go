package core

import (
	"fmt"
	"strings"

	"mdv/internal/rdb"
	"mdv/internal/rdf"
	"mdv/internal/rules"
)

// Atomic rule kinds stored in AtomicRules.kind.
const (
	kindTrigger = "T"
	kindJoin    = "J"
)

// triggerSpec describes one triggering rule (paper §3.3.1): a single class
// and either no predicate (any) or one comparison with a constant.
type triggerSpec struct {
	class    string
	any      bool
	property string // rdf.SubjectProperty for bare-variable predicates
	op       rules.Op
	value    rules.Const
	numeric  bool // comparison reconverts via CAST (paper §3.3.4)
}

// key is the (class, property) of the atoms the rule can match: an ANY rule
// matches a resource by its rdf#subject atom.
func (t triggerSpec) key() classProp {
	if t.any {
		return classProp{t.class, rdf.SubjectProperty}
	}
	return classProp{t.class, t.property}
}

// text returns the canonical rule text used for deduplication (§3.3.4:
// "There are no duplicates, i.e., no rules having the same rule text but
// different rule_ids").
func (t triggerSpec) text() string {
	if t.any {
		return "search " + t.class + " v register v"
	}
	lhs := "v." + t.property
	if t.property == rdf.SubjectProperty {
		lhs = "v"
	}
	return "search " + t.class + " v register v where " + lhs + " " + t.op.String() + " " + t.value.Text()
}

// joinSpec describes one join rule (§3.3.1): two input atomic rules and a
// single join predicate. Empty props mean the bare resource (its URI
// reference). self marks predicates over a single resource (both sides the
// same variable).
type joinSpec struct {
	leftRule, rightRule   int64
	leftClass, rightClass string
	leftProp, rightProp   string
	op                    rules.Op
	registerSide          byte // 'L' or 'R'
	self                  bool
	numeric               bool
}

// orient canonicalizes the spec so structurally equal join rules produce
// equal texts: for flippable operators the smaller (rule, prop) pair goes
// left. contains is not symmetric and keeps its orientation.
func (j joinSpec) orient() joinSpec {
	if j.op == rules.OpContains {
		return j
	}
	leftKey := fmt.Sprintf("%d\x00%s", j.leftRule, j.leftProp)
	rightKey := fmt.Sprintf("%d\x00%s", j.rightRule, j.rightProp)
	if leftKey <= rightKey {
		return j
	}
	flipped, _ := flipOp(j.op)
	out := j
	out.leftRule, out.rightRule = j.rightRule, j.leftRule
	out.leftClass, out.rightClass = j.rightClass, j.leftClass
	out.leftProp, out.rightProp = j.rightProp, j.leftProp
	out.op = flipped
	if j.registerSide == 'L' {
		out.registerSide = 'R'
	} else {
		out.registerSide = 'L'
	}
	return out
}

func flipOp(op rules.Op) (rules.Op, bool) {
	switch op {
	case rules.OpLt:
		return rules.OpGt, true
	case rules.OpLe:
		return rules.OpGe, true
	case rules.OpGt:
		return rules.OpLt, true
	case rules.OpGe:
		return rules.OpLe, true
	case rules.OpEq, rules.OpNe:
		return op, true
	default:
		return op, false
	}
}

func (j joinSpec) text() string {
	lhs := "a"
	if j.leftProp != "" {
		lhs = "a." + j.leftProp
	}
	rhs := "b"
	if j.rightProp != "" {
		rhs = "b." + j.rightProp
	}
	if j.self {
		return fmt.Sprintf("search R%d a register a where %s %s %s",
			j.leftRule, lhs, j.op.String(), strings.Replace(rhs, "b", "a", 1))
	}
	reg := "a"
	if j.registerSide == 'R' {
		reg = "b"
	}
	return fmt.Sprintf("search R%d a, R%d b register %s where %s %s %s",
		j.leftRule, j.rightRule, reg, lhs, j.op.String(), rhs)
}

// groupKey identifies the rule group of a join rule (§3.3.3): join rules
// with an equal where part, equally bound classes, and the same register
// side evaluate together.
func (j joinSpec) groupKey() string {
	return strings.Join([]string{
		j.leftClass, j.leftProp, j.op.String(), j.rightProp, j.rightClass,
		string(j.registerSide), fmt.Sprintf("self=%v", j.self), fmt.Sprintf("num=%v", j.numeric),
	}, "|")
}

// registeredClass is the type of the rule (§3.3.1: "a rule's type is the
// type of the resources it registers").
func (j joinSpec) registeredClass() string {
	if j.registerSide == 'R' {
		return j.rightClass
	}
	return j.leftClass
}

// internCtx records the atomic rules touched while decomposing one
// subscription: every intern call (for refcount bookkeeping on
// unsubscribe) and the freshly created ids (already initialized bottom-up).
type internCtx struct {
	interned []int64
	created  []int64
}

// lookupAtomicByText finds an existing atomic rule with the given canonical
// text.
func (e *Engine) lookupAtomicByText(text string) (int64, bool, error) {
	rows, err := e.db.Query(`SELECT rule_id FROM AtomicRules WHERE rule_text = ?`, rdb.NewText(text))
	if err != nil {
		return 0, false, err
	}
	if rows.Empty() {
		return 0, false, nil
	}
	return rows.Data[0][0].Int, true, nil
}

// internTrigger returns the rule id of the triggering rule, creating and
// initializing it if it is new. The context records the touched rule ids.
func (e *Engine) internTrigger(spec triggerSpec, ctx *internCtx) (int64, error) {
	text := spec.text()
	if e.opts.DisableSharing {
		e.disambig++
		text = fmt.Sprintf("%s #%d", text, e.disambig)
	}
	if id, ok, err := e.lookupAtomicByText(text); err != nil {
		return 0, err
	} else if ok {
		e.stats.AtomicRulesShared++
		if _, err := e.db.Exec(`UPDATE AtomicRules SET refcount = refcount + 1 WHERE rule_id = ?`,
			rdb.NewInt(id)); err != nil {
			return 0, err
		}
		ctx.interned = append(ctx.interned, id)
		return id, nil
	}
	e.nextRuleID++
	id := e.nextRuleID
	e.stats.AtomicRulesCreated++
	if _, err := e.db.Exec(
		`INSERT INTO AtomicRules (rule_id, kind, class, rule_text, refcount) VALUES (?, ?, ?, ?, 1)`,
		rdb.NewInt(id), rdb.NewText(kindTrigger), rdb.NewText(spec.class), rdb.NewText(text)); err != nil {
		return 0, err
	}
	table, err := filterTableFor(spec)
	if err != nil {
		return 0, err
	}
	row := filterRuleRow(spec, table, id)
	if _, err := e.db.Exec(filterRuleInsert(table, len(row)), row...); err != nil {
		return 0, err
	}
	e.trigProps[spec.key()]++
	// Contains rules additionally enter the substring index (derived state,
	// rebuilt from FilterRulesCON on load).
	if e.text != nil && table == "FilterRulesCON" {
		e.text.insert(spec.class, spec.property, spec.value.Lexical(), id)
	}
	ctx.interned = append(ctx.interned, id)
	ctx.created = append(ctx.created, id)
	if err := e.initializeTrigger(id, spec); err != nil {
		return 0, err
	}
	return id, nil
}

// filterRuleRow builds the filter-table row of a triggering rule in the
// table's column order: (rule_id, class) for ANY, plus (property, value) for
// the string operators, plus num_value for the numeric ones.
func filterRuleRow(spec triggerSpec, table string, id int64) []rdb.Value {
	row := []rdb.Value{rdb.NewInt(id), rdb.NewText(spec.class)}
	if spec.any {
		return row
	}
	row = append(row, rdb.NewText(spec.property), rdb.NewText(spec.value.Lexical()))
	if numericFilterTable(table) {
		row = append(row, rdb.NumValue(spec.value.Lexical()))
	}
	return row
}

// filterRuleInsert renders the INSERT of a full-width filter-table row.
func filterRuleInsert(table string, width int) string {
	return `INSERT INTO ` + table + ` VALUES (?` + strings.Repeat(", ?", width-1) + `)`
}

// trigTableNames are the per-operator filter tables, index-aligned with
// trigOpNames.
var trigTableNames = [numTrigOps]string{
	"FilterRulesANY", "FilterRulesEQ", "FilterRulesEQN", "FilterRulesNE", "FilterRulesNEN",
	"FilterRulesCON", "FilterRulesLT", "FilterRulesLE", "FilterRulesGT", "FilterRulesGE",
}

// numericFilterTable reports whether a FilterRules table carries the typed
// num_value column (every table whose comparison reconverts numerically).
func numericFilterTable(table string) bool {
	switch table {
	case "FilterRulesEQN", "FilterRulesNEN", "FilterRulesLT",
		"FilterRulesLE", "FilterRulesGT", "FilterRulesGE":
		return true
	}
	return false
}

// filterTableFor maps a triggering rule to its FilterRules table (§3.3.4).
func filterTableFor(spec triggerSpec) (string, error) {
	if spec.any {
		return "FilterRulesANY", nil
	}
	switch spec.op {
	case rules.OpEq:
		if spec.numeric {
			return "FilterRulesEQN", nil
		}
		return "FilterRulesEQ", nil
	case rules.OpNe:
		if spec.numeric {
			return "FilterRulesNEN", nil
		}
		return "FilterRulesNE", nil
	case rules.OpContains:
		return "FilterRulesCON", nil
	case rules.OpLt:
		return "FilterRulesLT", nil
	case rules.OpLe:
		return "FilterRulesLE", nil
	case rules.OpGt:
		return "FilterRulesGT", nil
	case rules.OpGe:
		return "FilterRulesGE", nil
	}
	return "", fmt.Errorf("core: no filter table for operator %v", spec.op)
}

// internJoin returns the rule id of the join rule, creating it (with its
// group and group-feed edges) and initializing its materialization if new.
func (e *Engine) internJoin(spec joinSpec, ctx *internCtx) (int64, error) {
	spec = spec.orient()
	text := spec.text()
	if e.opts.DisableSharing {
		e.disambig++
		text = fmt.Sprintf("%s #%d", text, e.disambig)
	}
	if id, ok, err := e.lookupAtomicByText(text); err != nil {
		return 0, err
	} else if ok {
		e.stats.AtomicRulesShared++
		if _, err := e.db.Exec(`UPDATE AtomicRules SET refcount = refcount + 1 WHERE rule_id = ?`,
			rdb.NewInt(id)); err != nil {
			return 0, err
		}
		ctx.interned = append(ctx.interned, id)
		return id, nil
	}
	e.nextRuleID++
	id := e.nextRuleID
	e.stats.AtomicRulesCreated++
	groupID, err := e.internGroup(spec, id)
	if err != nil {
		return 0, err
	}
	if _, err := e.db.Exec(
		`INSERT INTO AtomicRules (rule_id, kind, class, rule_text, refcount) VALUES (?, ?, ?, ?, 1)`,
		rdb.NewInt(id), rdb.NewText(kindJoin), rdb.NewText(spec.registeredClass()), rdb.NewText(text)); err != nil {
		return 0, err
	}
	if _, err := e.db.Exec(
		`INSERT INTO JoinRules (rule_id, left_rule, right_rule, group_id) VALUES (?, ?, ?, ?)`,
		rdb.NewInt(id), rdb.NewInt(spec.leftRule), rdb.NewInt(spec.rightRule), rdb.NewInt(groupID)); err != nil {
		return 0, err
	}
	// Group feed edges (deduplicated; self groups have a single input side).
	if err := e.addGroupFeed(spec.leftRule, 'L', groupID); err != nil {
		return 0, err
	}
	if !spec.self {
		if err := e.addGroupFeed(spec.rightRule, 'R', groupID); err != nil {
			return 0, err
		}
	}
	ctx.interned = append(ctx.interned, id)
	ctx.created = append(ctx.created, id)
	if err := e.initializeJoin(id, groupID, spec); err != nil {
		return 0, err
	}
	return id, nil
}

// addGroupFeed records that an atomic rule feeds one side of a join-rule
// group, deduplicating on (source, side, group).
func (e *Engine) addGroupFeed(source int64, side byte, groupID int64) error {
	rows, err := e.db.Query(
		`SELECT group_id FROM GroupFeeds WHERE source_rule = ? AND side = ? AND group_id = ? LIMIT 1`,
		rdb.NewInt(source), rdb.NewText(string(side)), rdb.NewInt(groupID))
	if err != nil {
		return err
	}
	if !rows.Empty() {
		return nil
	}
	_, err = e.db.Exec(`INSERT INTO GroupFeeds (source_rule, side, group_id) VALUES (?, ?, ?)`,
		rdb.NewInt(source), rdb.NewText(string(side)), rdb.NewInt(groupID))
	return err
}

// rebuildGroupFeeds re-derives a group's feed edges from its remaining
// members (after a join rule was swept).
func (e *Engine) rebuildGroupFeeds(gid int64) error {
	if _, err := e.db.Exec(`DELETE FROM GroupFeeds WHERE group_id = ?`, rdb.NewInt(gid)); err != nil {
		return err
	}
	rows, err := e.db.Query(`SELECT left_rule, right_rule FROM JoinRules WHERE group_id = ?`, rdb.NewInt(gid))
	if err != nil {
		return err
	}
	if rows.Empty() {
		return nil
	}
	g, err := e.groupByID(gid)
	if err != nil {
		return err
	}
	for _, r := range rows.Data {
		if err := e.addGroupFeed(r[0].Int, 'L', gid); err != nil {
			return err
		}
		if !g.self {
			if err := e.addGroupFeed(r[1].Int, 'R', gid); err != nil {
				return err
			}
		}
	}
	return nil
}

// internGroup finds or creates the rule group for a join rule (§3.3.3).
// With rule groups disabled every join rule gets a private group.
func (e *Engine) internGroup(spec joinSpec, ruleID int64) (int64, error) {
	key := spec.groupKey()
	if e.opts.DisableRuleGroups {
		key = fmt.Sprintf("%s|private=%d", key, ruleID)
	}
	rows, err := e.db.Query(`SELECT group_id FROM RuleGroups WHERE group_key = ?`, rdb.NewText(key))
	if err != nil {
		return 0, err
	}
	if !rows.Empty() {
		return rows.Data[0][0].Int, nil
	}
	e.nextGroupID++
	gid := e.nextGroupID
	_, err = e.db.Exec(`INSERT INTO RuleGroups
		(group_id, left_class, left_prop, op, right_prop, right_class, register_side, is_self, group_key)
		VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)`,
		rdb.NewInt(gid), rdb.NewText(spec.leftClass), rdb.NewText(spec.leftProp),
		rdb.NewText(spec.op.String()), rdb.NewText(spec.rightProp), rdb.NewText(spec.rightClass),
		rdb.NewText(string(spec.registerSide)), rdb.NewBool(spec.self), rdb.NewText(key))
	if err != nil {
		return 0, err
	}
	e.joinProps.add(&groupInfo{id: gid, leftClass: spec.leftClass, leftProp: spec.leftProp,
		rightProp: spec.rightProp, rightClass: spec.rightClass, self: spec.self})
	return gid, nil
}

// groupInfo is the decoded form of a RuleGroups row.
type groupInfo struct {
	id           int64
	leftClass    string
	leftProp     string
	op           rules.Op
	rightProp    string
	rightClass   string
	registerSide byte
	self         bool
	numeric      bool
}

func parseOp(s string) (rules.Op, error) {
	switch s {
	case "=":
		return rules.OpEq, nil
	case "!=":
		return rules.OpNe, nil
	case "<":
		return rules.OpLt, nil
	case "<=":
		return rules.OpLe, nil
	case ">":
		return rules.OpGt, nil
	case ">=":
		return rules.OpGe, nil
	case "contains":
		return rules.OpContains, nil
	}
	return 0, fmt.Errorf("core: unknown operator %q", s)
}

func (e *Engine) groupByID(id int64) (*groupInfo, error) {
	rows, err := e.db.Query(`
		SELECT group_id, left_class, left_prop, op, right_prop, right_class,
		register_side, is_self, group_key FROM RuleGroups WHERE group_id = ?`, rdb.NewInt(id))
	if err != nil {
		return nil, err
	}
	if rows.Empty() {
		return nil, fmt.Errorf("core: no rule group %d", id)
	}
	return decodeGroup(rows.Data[0])
}

func decodeGroup(row []rdb.Value) (*groupInfo, error) {
	op, err := parseOp(row[3].Str)
	if err != nil {
		return nil, err
	}
	g := &groupInfo{
		id:         row[0].Int,
		leftClass:  row[1].Str,
		leftProp:   row[2].Str,
		op:         op,
		rightProp:  row[4].Str,
		rightClass: row[5].Str,
		self:       row[7].Bool,
	}
	g.registerSide = 'L'
	if row[6].Str == "R" {
		g.registerSide = 'R'
	}
	// The numeric flag is part of the group key rather than a column of its
	// own; decode it from there.
	g.numeric = strings.Contains(row[8].Str, "num=true")
	return g, nil
}

// decomposeNormalRule decomposes one normalized rule into atomic rules
// (paper §3.3.1) and returns the end rule id. Newly created atomic rule ids
// are recorded in the context in bottom-up dependency order.
func (e *Engine) decomposeNormalRule(nr *rules.NormalRule, ctx *internCtx) (int64, error) {
	varClass := map[string]string{}
	for _, b := range nr.Search {
		varClass[b.Var] = b.Extension
	}

	type constPred struct {
		prop    string
		op      rules.Op
		value   rules.Const
		numeric bool
	}
	constPreds := map[string][]constPred{}
	type joinPred struct {
		lVar, lProp string
		op          rules.Op
		rVar, rProp string
		numeric     bool
	}
	var joins []joinPred
	var selfs []joinPred

	propNumeric := func(class, prop string) bool {
		if prop == "" {
			return false
		}
		c, ok := e.schema.Class(class)
		if !ok {
			return false
		}
		def, ok := c.Property(prop)
		if !ok {
			return false
		}
		return def.Type == rdf.TypeInteger || def.Type == rdf.TypeFloat
	}

	for _, p := range nr.Where {
		lConst := p.Left.Kind == rules.OperandConst
		rConst := p.Right.Kind == rules.OperandConst
		switch {
		case lConst && rConst:
			return 0, fmt.Errorf("core: predicate %q compares two constants", p.Text())
		case lConst || rConst:
			// Normalize to path-op-const.
			pathSide, constSide, op := p.Left, p.Right, p.Op
			if lConst {
				flipped, ok := flipOp(p.Op)
				if !ok {
					return 0, fmt.Errorf("core: %q: contains with constant left operand is not supported", p.Text())
				}
				pathSide, constSide, op = p.Right, p.Left, flipped
			}
			v := pathSide.Var
			prop := rdf.SubjectProperty
			if len(pathSide.Path) == 1 {
				prop = pathSide.Path[0].Property
			}
			numeric := constSide.Const.Kind != rules.ConstString && propNumeric(varClass[v], prop)
			constPreds[v] = append(constPreds[v], constPred{prop: prop, op: op, value: constSide.Const, numeric: numeric})
		default:
			lp, rp := "", ""
			if len(p.Left.Path) == 1 {
				lp = p.Left.Path[0].Property
			}
			if len(p.Right.Path) == 1 {
				rp = p.Right.Path[0].Property
			}
			jp := joinPred{lVar: p.Left.Var, lProp: lp, op: p.Op, rVar: p.Right.Var, rProp: rp}
			jp.numeric = propNumeric(varClass[jp.lVar], jp.lProp) && propNumeric(varClass[jp.rVar], jp.rProp)
			if jp.lVar == jp.rVar {
				if jp.lProp == "" && jp.rProp == "" {
					continue // v = v is trivially true
				}
				selfs = append(selfs, jp)
			} else {
				joins = append(joins, jp)
			}
		}
	}

	// Step 1 (§3.3.1): one triggering rule per constant predicate; variables
	// without any constant predicate get a triggering rule without a where
	// clause.
	rep := map[string]int64{}
	for _, b := range nr.Search {
		preds := constPreds[b.Var]
		var ids []int64
		if len(preds) == 0 {
			id, err := e.internTrigger(triggerSpec{class: b.Extension, any: true}, ctx)
			if err != nil {
				return 0, err
			}
			ids = []int64{id}
		} else {
			for _, cp := range preds {
				id, err := e.internTrigger(triggerSpec{
					class: b.Extension, property: cp.prop, op: cp.op, value: cp.value, numeric: cp.numeric,
				}, ctx)
				if err != nil {
					return 0, err
				}
				ids = append(ids, id)
			}
		}
		// Multiple triggering rules over one variable intersect via bare
		// merge join rules (RuleE in the paper's example: "search RuleA a,
		// RuleB b register a where a = b").
		cur := ids[0]
		for _, next := range ids[1:] {
			id, err := e.internJoin(joinSpec{
				leftRule: cur, rightRule: next,
				leftClass: b.Extension, rightClass: b.Extension,
				op: rules.OpEq, registerSide: 'L',
			}, ctx)
			if err != nil {
				return 0, err
			}
			cur = id
		}
		rep[b.Var] = cur
	}

	// Step 2: self predicates refine a single variable's rule.
	for _, sp := range selfs {
		if sp.lProp == "" || sp.rProp == "" {
			return 0, fmt.Errorf("core: self predicate must access two properties")
		}
		id, err := e.internJoin(joinSpec{
			leftRule: rep[sp.lVar], rightRule: rep[sp.lVar],
			leftClass: varClass[sp.lVar], rightClass: varClass[sp.lVar],
			leftProp: sp.lProp, rightProp: sp.rProp,
			op: sp.op, registerSide: 'L', self: true, numeric: sp.numeric,
		}, ctx)
		if err != nil {
			return 0, err
		}
		rep[sp.lVar] = id
	}

	// Step 3: join predicates between variables, eliminating leaf variables
	// until only the register variable remains. The elimination order keeps
	// every intermediate result a set of single resources (the paper's
	// dependency trees are exactly such leaf-elimination orders).
	live := map[string]bool{}
	for _, b := range nr.Search {
		live[b.Var] = true
	}
	remaining := joins
	for len(remaining) > 0 {
		// Count predicates per live variable.
		degree := map[string]int{}
		for _, jp := range remaining {
			degree[jp.lVar]++
			degree[jp.rVar]++
		}
		leafIdx := -1
		var leafVar string
		for i, jp := range remaining {
			for _, v := range []string{jp.lVar, jp.rVar} {
				if v != nr.Register && degree[v] == 1 {
					leafIdx, leafVar = i, v
					break
				}
			}
			if leafIdx >= 0 {
				break
			}
		}
		if leafIdx < 0 {
			return 0, fmt.Errorf("core: rule %q has a cyclic join graph; decomposition into a dependency tree is impossible", nr.Text())
		}
		jp := remaining[leafIdx]
		remaining = append(remaining[:leafIdx], remaining[leafIdx+1:]...)

		spec := joinSpec{
			leftRule: rep[jp.lVar], rightRule: rep[jp.rVar],
			leftClass: varClass[jp.lVar], rightClass: varClass[jp.rVar],
			leftProp: jp.lProp, rightProp: jp.rProp,
			op: jp.op, numeric: jp.numeric,
		}
		survivor := jp.rVar
		if leafVar == jp.rVar {
			survivor = jp.lVar
			spec.registerSide = 'L'
		} else {
			spec.registerSide = 'R'
		}
		id, err := e.internJoin(spec, ctx)
		if err != nil {
			return 0, err
		}
		rep[survivor] = id
		delete(live, leafVar)
	}

	// Connectivity: all variables must have merged into the register
	// variable; anything else would be a cartesian product.
	for v := range live {
		if v != nr.Register {
			return 0, fmt.Errorf("core: rule %q: variable %q is not connected to the registered variable", nr.Text(), v)
		}
	}
	end, ok := rep[nr.Register]
	if !ok {
		return 0, fmt.Errorf("core: rule %q: register variable has no rule", nr.Text())
	}
	return end, nil
}

// initQueries evaluates a freshly created triggering rule against the full
// metadata store (Statements) to bootstrap its materialization, so later
// join evaluations can use it (paper §3.4: results are materialized).
func (e *Engine) initializeTrigger(id int64, spec triggerSpec) error {
	var q string
	params := []rdb.Value{}
	if spec.any {
		q = `SELECT uri_reference FROM Resources WHERE class = ?`
		params = append(params, rdb.NewText(spec.class))
	} else {
		cmp, cast := sqlCompare(spec.op, spec.numeric)
		lhs, rhs := "value", "?"
		cmpParam := rdb.NewText(spec.value.Lexical())
		if cast {
			if e.opts.DisableTypedIndexes {
				lhs, rhs = "CAST(value AS FLOAT)", "CAST(? AS FLOAT)"
			} else {
				// Typed path: the (class, property, num_value) statement
				// index answers this with a point lookup or range scan.
				lhs = "num_value"
				cmpParam = rdb.NumValue(spec.value.Lexical())
			}
		}
		q = `SELECT uri_reference FROM Statements WHERE class = ? AND property = ? AND ` +
			lhs + " " + cmp + " " + rhs
		params = append(params, rdb.NewText(spec.class), rdb.NewText(spec.property), cmpParam)
	}
	// Collect first: materialize issues writes, which must not run inside
	// the streaming read query.
	seen := map[string]bool{}
	var uris []string
	err := e.db.QueryFunc(q, params, func(row []rdb.Value) error {
		if uri := row[0].Str; !seen[uri] {
			seen[uri] = true
			uris = append(uris, uri)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, uri := range uris {
		if err := e.materialize(id, uri); err != nil {
			return err
		}
	}
	return nil
}

// initializeJoin bootstraps a freshly created join rule's materialization
// as one delta step of the filter (§3.4): the smaller of its two
// materialized inputs goes into ResultObjects as the delta, and its group's
// query evaluates that side against the other input's results, restricted
// to the new rule. A self rule has its left input only. Seeding from the
// smaller side keeps the delta, and with it the partner lookups, small.
func (e *Engine) initializeJoin(id, groupID int64, spec joinSpec) (err error) {
	side := byte('L')
	delta, err := e.inputDelta(spec.leftRule)
	if err != nil {
		return err
	}
	if !spec.self {
		right, err := e.inputDelta(spec.rightRule)
		if err != nil {
			return err
		}
		if len(right) < len(delta) {
			side, delta = 'R', right
		}
	}
	if len(delta) == 0 {
		return nil
	}
	defer func() {
		if _, cerr := e.db.Exec(clearResultObjects); err == nil {
			err = cerr
		}
	}()
	if err := e.loadResultObjects(delta); err != nil {
		return err
	}
	g := &groupInfo{
		id: groupID, leftClass: spec.leftClass, leftProp: spec.leftProp, op: spec.op,
		rightProp: spec.rightProp, rightClass: spec.rightClass,
		registerSide: spec.registerSide, self: spec.self, numeric: spec.numeric,
	}
	pairs, err := e.evalGroupDelta(g, side, id)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, p := range pairs {
		if seen[p.uri] {
			continue
		}
		seen[p.uri] = true
		if err := e.materialize(id, p.uri); err != nil {
			return err
		}
	}
	return nil
}

// inputDelta returns an atomic rule's materialized results as filter delta
// pairs.
func (e *Engine) inputDelta(rule int64) ([]matchPair, error) {
	var out []matchPair
	err := e.db.QueryFunc(`SELECT uri_reference FROM RuleResults WHERE rule_id = ?`,
		[]rdb.Value{rdb.NewInt(rule)}, func(row []rdb.Value) error {
			out = append(out, matchPair{rule: rule, uri: row[0].Str})
			return nil
		})
	return out, err
}

// sqlCompare maps a rule operator to the SQL comparison and whether both
// sides are CAST to FLOAT (the paper's string-stored numeric constants).
func sqlCompare(op rules.Op, numeric bool) (string, bool) {
	switch op {
	case rules.OpEq:
		return "=", numeric
	case rules.OpNe:
		return "!=", numeric
	case rules.OpLt:
		return "<", true
	case rules.OpLe:
		return "<=", true
	case rules.OpGt:
		return ">", true
	case rules.OpGe:
		return ">=", true
	case rules.OpContains:
		return "CONTAINS", false
	}
	return "=", false
}

// hasResult reports whether (rule, uri) is materialized.
func (e *Engine) hasResult(rule int64, uri string) (bool, error) {
	rows, err := e.db.Query(`SELECT rule_id FROM RuleResults WHERE rule_id = ? AND uri_reference = ? LIMIT 1`,
		rdb.NewInt(rule), rdb.NewText(uri))
	if err != nil {
		return false, err
	}
	return !rows.Empty(), nil
}

// materialize records (rule, uri) in RuleResults.
func (e *Engine) materialize(rule int64, uri string) error {
	_, err := e.db.Exec(`INSERT INTO RuleResults (rule_id, uri_reference) VALUES (?, ?)`, rdb.NewInt(rule), rdb.NewText(uri))
	return err
}

// unmaterialize removes (rule, uri) from RuleResults.
func (e *Engine) unmaterialize(rule int64, uri string) error {
	_, err := e.db.Exec(`DELETE FROM RuleResults WHERE rule_id = ? AND uri_reference = ?`, rdb.NewInt(rule), rdb.NewText(uri))
	return err
}

// RuleResultsOf returns the materialized matches of an atomic rule, for
// tests and the initial cache fill on subscription.
func (e *Engine) RuleResultsOf(rule int64) ([]string, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ruleResultsOfLocked(rule)
}

func (e *Engine) ruleResultsOfLocked(rule int64) ([]string, error) {
	rows, err := e.db.Query(`SELECT uri_reference FROM RuleResults WHERE rule_id = ? ORDER BY uri_reference`,
		rdb.NewInt(rule))
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, rows.Len())
	for _, r := range rows.Data {
		out = append(out, r[0].Str)
	}
	return out, nil
}
