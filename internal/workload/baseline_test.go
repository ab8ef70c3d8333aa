package workload

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"mdv/internal/core"
)

// TestBaselineAgreesWithFilter: the naive evaluate-every-rule matcher and
// the filter engine must report identical matches for every rule type —
// the baseline is only slower, never different.
func TestBaselineAgreesWithFilter(t *testing.T) {
	for _, typ := range []RuleType{OID, COMP, PATH, JOIN} {
		typ := typ
		t.Run(typ.String(), func(t *testing.T) {
			g := Generator{Type: typ, RuleBase: 30, MatchPercent: 0.2}

			engine, err := core.NewEngine(Schema())
			if err != nil {
				t.Fatal(err)
			}
			naive, err := NewBaseline(Schema())
			if err != nil {
				t.Fatal(err)
			}
			subToRule := map[int64]int64{} // engine sub id -> naive rule id
			for i := 0; i < g.RuleBase; i++ {
				id, _, err := engine.Subscribe("lmr", g.Rule(i))
				if err != nil {
					t.Fatal(err)
				}
				if err := naive.Subscribe(g.Rule(i)); err != nil {
					t.Fatal(err)
				}
				subToRule[id] = int64(i + 1)
			}
			if naive.RuleCount() != g.RuleBase {
				t.Fatalf("naive rule count = %d", naive.RuleCount())
			}

			docs := g.Batch(0, 15)
			ps, err := engine.RegisterDocuments(docs)
			if err != nil {
				t.Fatal(err)
			}
			naiveMatches, err := naive.Register(docs)
			if err != nil {
				t.Fatal(err)
			}

			// Flatten both to (rule ordinal, uri) pair sets.
			engineSet := map[string]bool{}
			for _, g := range ps.Groups {
				for _, up := range g.Changeset.Upserts {
					for _, subID := range up.SubIDs {
						engineSet[fmt.Sprintf("%d|%s", subToRule[subID], up.Resource.URIRef)] = true
					}
				}
			}
			naiveSet := map[string]bool{}
			for ruleID, uris := range naiveMatches {
				for _, uri := range uris {
					naiveSet[fmt.Sprintf("%d|%s", ruleID, uri)] = true
				}
			}
			if len(engineSet) == 0 {
				t.Fatal("no matches at all; workload broken")
			}
			if !sameSet(engineSet, naiveSet) {
				t.Errorf("filter and baseline disagree:\n filter only: %v\n naive only: %v",
					diffSet(engineSet, naiveSet), diffSet(naiveSet, engineSet))
			}
		})
	}
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func diffSet(a, b map[string]bool) []string {
	var out []string
	for k := range a {
		if !b[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	if len(out) > 5 {
		out = append(out[:5], fmt.Sprintf("... %d more", len(out)-5))
	}
	return out
}

// TestBaselineRejectsBadRule: parse and schema errors surface.
func TestBaselineRejectsBadRule(t *testing.T) {
	naive, err := NewBaseline(Schema())
	if err != nil {
		t.Fatal(err)
	}
	if err := naive.Subscribe(`garbage`); err == nil {
		t.Error("garbage rule accepted")
	}
	if err := naive.Subscribe(`search Unknown u register u`); err == nil {
		t.Error("unknown class accepted")
	}
	if err := naive.Subscribe(strings.TrimSpace(`search CycleProvider c register c`)); err != nil {
		t.Errorf("valid rule rejected: %v", err)
	}
}
