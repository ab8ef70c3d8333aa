package provider

import (
	"fmt"
	"testing"

	"mdv/internal/core"
)

// TestDeliveryFailureDoesNotFailRegistration: a broken subscriber must not
// block metadata administration; the failure is observable via
// OnDeliveryError.
func TestDeliveryFailureDoesNotFailRegistration(t *testing.T) {
	p, err := New("mdp", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	var failures []string
	p.OnDeliveryError = func(subscriber string, err error) {
		failures = append(failures, subscriber)
	}
	p.Attach("broken", func(uint64, bool, *core.Changeset) error {
		return fmt.Errorf("cache on fire")
	})
	var delivered int
	p.Attach("healthy", func(uint64, bool, *core.Changeset) error {
		delivered++
		return nil
	})
	for _, sub := range []string{"broken", "healthy"} {
		if _, err := p.Subscribe(sub, `search CycleProvider c register c`); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.RegisterDocument(testDoc(1, 80)); err != nil {
		t.Fatalf("registration failed due to broken subscriber: %v", err)
	}
	if len(failures) != 1 || failures[0] != "broken" {
		t.Errorf("failures = %v", failures)
	}
	if delivered != 1 {
		t.Errorf("healthy subscriber received %d changesets", delivered)
	}
	// The metadata is committed regardless.
	if p.Engine().ResourceCount() != 1 {
		t.Errorf("resources = %d", p.Engine().ResourceCount())
	}
}
