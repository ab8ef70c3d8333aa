package core

import (
	"mdv/internal/atoms"
	"mdv/internal/rdb"
)

// classProp is a (class, property) pair of the metadata.
type classProp struct {
	class, property string
}

// groupSide is one input side ('L' or 'R') of a join-rule group.
type groupSide struct {
	group int64
	side  byte
}

// joinProps maps every (class, property) that a join-rule group compares to
// the group sides that read it. A changed atom of such a property can move
// the group's matches without moving any triggering match, so §3.5 seeds the
// group from the resource's input matches (joinSeeds). Derived state of
// RuleGroups: a group's entries are added when it is created, removed with
// it, and rebuilt on Load.
type joinProps map[classProp][]groupSide

// propSide is a property a group reads and the input side it belongs to.
type propSide struct {
	cp   classProp
	side byte
}

// sides lists the properties a group reads. A self group reads both of its
// properties on its one side.
func (g *groupInfo) sides() []propSide {
	var out []propSide
	if g.leftProp != "" {
		out = append(out, propSide{classProp{g.leftClass, g.leftProp}, 'L'})
	}
	if g.rightProp != "" {
		if g.self {
			out = append(out, propSide{classProp{g.leftClass, g.rightProp}, 'L'})
		} else {
			out = append(out, propSide{classProp{g.rightClass, g.rightProp}, 'R'})
		}
	}
	return out
}

func (jp joinProps) add(g *groupInfo) {
	for _, s := range g.sides() {
		jp[s.cp] = append(jp[s.cp], groupSide{group: g.id, side: s.side})
	}
}

func (jp joinProps) remove(g *groupInfo) {
	for _, s := range g.sides() {
		kept := jp[s.cp][:0]
		for _, gs := range jp[s.cp] {
			if gs.group != g.id {
				kept = append(kept, gs)
			}
		}
		if len(kept) == 0 {
			delete(jp, s.cp)
		} else {
			jp[s.cp] = kept
		}
	}
}

// loadJoinProps rebuilds the join-property map from RuleGroups.
func (e *Engine) loadJoinProps() error {
	e.joinProps = joinProps{}
	rows, err := e.db.Query(`SELECT group_id, left_class, left_prop, op, right_prop, right_class,
		register_side, is_self, group_key FROM RuleGroups`)
	if err != nil {
		return err
	}
	for _, row := range rows.Data {
		g, err := decodeGroup(row)
		if err != nil {
			return err
		}
		e.joinProps.add(g)
	}
	return nil
}

// seedKey is a changed atom of a join property: the resource, its class and
// the property.
type seedKey struct {
	uri string
	cp  classProp
}

// joinSeeds appends the distinct join-property atoms among an updated
// resource's Δ⁻ and Δ⁺. Both filter executions seed from both sets: a set
// value removed from a reference property must retract the joins over it in
// the first execution and re-derive those over the values that remain in
// the third.
func (e *Engine) joinSeeds(d resourceDelta, seeds []seedKey) []seedKey {
	seen := map[classProp]bool{}
	for _, as := range [2][]atoms.Atom{d.minus, d.plus} {
		for _, a := range as {
			cp := classProp{a.Class, a.Property}
			if seen[cp] || len(e.joinProps[cp]) == 0 {
				continue
			}
			seen[cp] = true
			seeds = append(seeds, seedKey{uri: d.uri, cp: cp})
		}
	}
	return seeds
}

// addSeeds appends to a run's first join delta the resource's materialized
// input matches of every group side that reads a seeded property, unless
// the delta has them already.
func (e *Engine) addSeeds(delta []matchPair, seeds []seedKey) ([]matchPair, error) {
	if len(seeds) == 0 {
		return delta, nil
	}
	in := make(map[matchPair]bool, len(delta))
	for _, p := range delta {
		in[p] = true
	}
	for _, s := range seeds {
		for _, gs := range e.joinProps[s.cp] {
			// The resource's materialized matches that feed this side of this
			// group: its results by idx_rr_uri, each probed in GroupFeeds by
			// idx_gf_pk.
			rows, err := e.db.Query(`
				SELECT rr.rule_id FROM RuleResults rr, GroupFeeds gf
				WHERE rr.uri_reference = ? AND gf.source_rule = rr.rule_id AND gf.side = ? AND gf.group_id = ?`,
				rdb.NewText(s.uri), rdb.NewText(string(gs.side)), rdb.NewInt(gs.group))
			if err != nil {
				return nil, err
			}
			for _, row := range rows.Data {
				p := matchPair{rule: row[0].Int, uri: s.uri}
				if !in[p] {
					in[p] = true
					delta = append(delta, p)
				}
			}
		}
	}
	return delta, nil
}
