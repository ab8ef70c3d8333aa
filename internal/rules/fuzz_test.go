package rules

import (
	"os"
	"strings"
	"testing"
)

// FuzzParseRule feeds arbitrary text to the rule parser, which every
// subscription and named rule passes through before the provider decomposes
// it. The parser must never panic, and a rule it accepts must re-parse from
// its Text() to the same Text().
func FuzzParseRule(f *testing.F) {
	b, err := os.ReadFile("../../testdata/rules.mdv")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			f.Add(line)
		}
	}
	f.Add(`search CycleProvider c, ServerInformation s register s ` +
		`where c.serverInformation = s and not (c.serverPort >= 1e3 or 'x' != c.serverHost)`)
	f.Fuzz(func(t *testing.T, src string) {
		r, err := Parse(src)
		if err != nil {
			return
		}
		text := r.Text()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("Text() of an accepted rule does not parse: %v\n in: %q\nout: %q", err, src, text)
		}
		if got := back.Text(); got != text {
			t.Fatalf("Text() does not round-trip:\n in: %q\nout: %q\nagain: %q", src, text, got)
		}
	})
}
