package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// Shared pieces of the randomized differentials: a rule generator over the
// paper schema, its value pools, the publish-set renderers the comparisons
// run on, and the scratch check every run must pass.

var (
	genHosts  = []string{"pirates.uni-passau.de", "mdv.uni-passau.de", "a.example.org", "007", "grün.uni-passau.de", "PASSAU.DE"}
	genPorts  = []string{"80", "5874", "007", "0", "-3", "65535"}
	genInts   = []string{"0", "7", "007", "64", "92", "600", "1024"}
	genThemes = []string{"astronomy", "x-ray", "abc"}
	genOps    = []string{"=", "!=", "<", "<=", ">", ">="}
)

func genOp(rng *rand.Rand) string {
	return genOps[rng.Intn(len(genOps))]
}

// genRule draws one rule over the paper schema, covering all ten
// operator tables plus the join, path, and OR-split shapes. The contains
// cases deliberately include the empty constant (matches everything),
// multi-byte UTF-8 constants, and the bare-variable form `c contains 'x'`
// (matches the URIref, like the subject atoms that trigger it) — the
// text-index edge semantics.
func genRule(rng *rand.Rand) string {
	op := genOp(rng)
	switch rng.Intn(13) {
	case 0: // ANY (class-only)
		return `search CycleProvider c register c`
	case 1: // OID point rule
		return fmt.Sprintf(`search CycleProvider c register c where c = 'doc%d.rdf#host'`, rng.Intn(10))
	case 2: // string equality
		return fmt.Sprintf(`search CycleProvider c register c where c.serverHost = '%s'`,
			genHosts[rng.Intn(len(genHosts))])
	case 3: // string inequality
		return fmt.Sprintf(`search CycleProvider c register c where c.serverHost != '%s'`,
			genHosts[rng.Intn(len(genHosts))])
	case 4: // contains
		return fmt.Sprintf(`search CycleProvider c register c where c.serverHost contains '%s'`,
			[]string{"passau", "00", "a", "example", "", "ü", "grün", "PASSAU"}[rng.Intn(8)])
	case 12: // bare-variable contains (matches the URIref)
		return fmt.Sprintf(`search CycleProvider c register c where c contains '%s'`,
			[]string{"doc", "rdf#host", "", "7"}[rng.Intn(4)])
	case 5: // numeric comparison on an integer property
		return fmt.Sprintf(`search CycleProvider c register c where c.serverPort %s %d`, op, rng.Intn(6000))
	case 6: // numeric comparison on the other class
		return fmt.Sprintf(`search ServerInformation s register s where s.memory %s %d`, op, rng.Intn(128))
	case 7: // PATH through a strong reference
		return fmt.Sprintf(`search CycleProvider c register c where c.serverInformation.cpu %s %d`, op, rng.Intn(700))
	case 8: // explicit reference join
		return fmt.Sprintf(
			`search CycleProvider c, ServerInformation s register s where c.serverInformation = s and c.serverPort %s %d`,
			op, rng.Intn(6000))
	case 9: // OR-split: several end rules per subscription
		return fmt.Sprintf(
			`search CycleProvider c register c where c.serverPort = %d or c.serverHost contains 'uni'`, rng.Intn(6000))
	case 10: // conjunction of two triggering rules
		return fmt.Sprintf(
			`search CycleProvider c register c where c.serverHost contains 'passau' and c.serverPort %s %d`,
			op, rng.Intn(6000))
	default: // set-valued property on a third class
		return fmt.Sprintf(`search DataProvider d register d where d.theme = '%s'`,
			genThemes[rng.Intn(len(genThemes))])
	}
}

// renderChangeset writes a changeset verbatim — preserving the engine's
// emission order, so the comparison asserts determinism, not just set
// equality. Only MemberCredits needs sorting (it is a map).
func renderChangeset(b *strings.Builder, cs *Changeset) {
	if cs == nil {
		b.WriteString("  <nil>\n")
		return
	}
	for _, u := range cs.Upserts {
		fmt.Fprintf(b, "  up %s [%s] subs=%v", u.Resource.URIRef, u.Resource.Class, u.SubIDs)
		for _, p := range u.Resource.Props {
			fmt.Fprintf(b, " %s=%s", p.Name, p.Value.String())
		}
		for _, c := range u.Closure {
			fmt.Fprintf(b, " closure=%s", c.URIRef)
		}
		b.WriteByte('\n')
	}
	for _, r := range cs.Removals {
		fmt.Fprintf(b, "  rm %s sub=%d\n", r.URIRef, r.SubID)
	}
	for _, c := range cs.ClosureUpserts {
		fmt.Fprintf(b, "  closure-up %s\n", c.URIRef)
	}
	for _, f := range cs.ForcedDeletes {
		fmt.Fprintf(b, "  forced %s\n", f)
	}
	if cs.MemberCredits != nil {
		members := make([]string, 0, len(cs.MemberCredits))
		for m := range cs.MemberCredits {
			members = append(members, m)
		}
		sort.Strings(members)
		for _, m := range members {
			fmt.Fprintf(b, "  credits %s=%v\n", m, cs.MemberCredits[m])
		}
	}
}

// renderPublishSet canonicalizes a publish set: the delivery groups in the
// engine's order, each changeset verbatim.
func renderPublishSet(ps *PublishSet) string {
	if ps == nil {
		return "<nil>"
	}
	var b strings.Builder
	for _, g := range ps.Groups {
		fmt.Fprintf(&b, "group %v\n", g.Members)
		renderChangeset(&b, g.Changeset)
	}
	return b.String()
}

// checkNoScratch asserts that no filter run left per-run scratch behind:
// FilterData (the input atoms) and ResultObjects (the fixpoint delta) are
// empty between runs, including after a run that failed.
func checkNoScratch(t *testing.T, e *Engine) {
	t.Helper()
	for _, table := range []string{"FilterData", "ResultObjects"} {
		if n := e.count(table); n != 0 {
			t.Errorf("%s holds %d rows after the run", table, n)
		}
	}
}
