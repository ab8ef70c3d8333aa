package chaos

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mdv/internal/backoff"
	"mdv/internal/client"
	"mdv/internal/faultnet"
	"mdv/internal/lmr"
	"mdv/internal/provider"
	"mdv/internal/wire"
)

// TestReconnectBackoffResetsAfterFlap: the reconnect supervisor's backoff
// must restart at its base interval after every successful resume. The
// link flaps twice: the first outage is held down long enough for the
// schedule to climb several doublings; the second outage heals instantly.
// Without the reset, the second reconnect would inherit the first outage's
// climbed delay and sit out seconds of a perfectly healthy link.
func TestReconnectBackoffResetsAfterFlap(t *testing.T) {
	schema := chaosSchema(t)
	prov, err := provider.OpenDurable("mdp", schema, t.TempDir(), provider.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer prov.Close()
	srvCfg := wire.Config{
		HeartbeatInterval: 50 * time.Millisecond,
		IdleTimeout:       300 * time.Millisecond,
		WriteTimeout:      300 * time.Millisecond,
		SendQueue:         16,
	}
	addr, err := prov.ServeConfig("127.0.0.1:0", srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	px, err := faultnet.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	cliCfg := client.Config{
		Heartbeat:    50 * time.Millisecond,
		IdleTimeout:  300 * time.Millisecond,
		WriteTimeout: 300 * time.Millisecond,
		CallTimeout:  3 * time.Second,
	}
	node, cli := dialNode(t, schema, "flappy", px, cliCfg)

	// The backoff is owned by the supervisor goroutine (it may keep running
	// it if the fresh link flaps again immediately), so its attempt counter
	// is sampled inside Logf — same goroutine — and carried on the event.
	type supEvent struct {
		msg      string
		attempts int
	}
	b := &backoff.Backoff{Base: 50 * time.Millisecond, Max: 10 * time.Second}
	events := make(chan supEvent, 128)
	stop := make(chan struct{})
	supDone := make(chan struct{})
	go func() {
		defer close(supDone)
		// The supervisor owns cli and every connection it dials after it.
		node.Supervise(stop, cli, lmr.SuperviseConfig{
			Dial: func() (lmr.ReconnectableProvider, error) {
				return client.DialMDPConfig(px.Addr(), cliCfg)
			},
			Backoff:   b,
			Retryable: client.IsRetryable,
			Logf: func(format string, args ...interface{}) {
				select {
				case events <- supEvent{msg: fmt.Sprintf(format, args...), attempts: b.Attempts()}:
				default:
				}
			},
		})
	}()
	defer func() { close(stop); <-supDone }()

	// waitReconnected drains supervisor events until the "reconnected"
	// message (logged after b.Reset()) and returns the attempt counter as
	// the supervisor saw it at that moment.
	waitReconnected := func(outage string) int {
		t.Helper()
		deadline := time.After(15 * time.Second)
		for {
			select {
			case e := <-events:
				if strings.Contains(e.msg, "reconnected") {
					return e.attempts
				}
			case <-deadline:
				t.Fatalf("timed out waiting for reconnect after %s", outage)
			}
		}
	}

	// Outage 1: refuse redials and kill the live link, then hold the
	// outage long enough for the backoff to climb several doublings
	// (base 50ms: by 4s the un-jittered delay has reached seconds).
	px.SetRefuseNew(true)
	px.ResetAll()
	time.Sleep(4 * time.Second)
	px.SetRefuseNew(false)
	if got := waitReconnected("outage 1"); got != 0 {
		t.Fatalf("backoff attempts after successful reconnect = %d, want 0 (schedule must reset to its base)", got)
	}

	// Outage 2: an instant flap — the link dies but is immediately
	// dialable again. With the schedule back at base the redial fires
	// within ~one base interval; the first outage's climbed schedule
	// would wait multiple seconds before even trying.
	start := time.Now()
	px.ResetAll()
	waitReconnected("outage 2")
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Errorf("second reconnect took %v, want < 1.5s (first redial must restart at the base interval)", elapsed)
	}

	// The resumed stream works end to end after both flaps.
	if err := prov.RegisterDocument(hostDoc(1)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "post-flap push", func() bool {
		return cached(t, node.Repository(), "host1.rdf#cp")
	})
}
