// The serving-tier helpers the trace experiment runs on: an in-process
// server on a loopback listener, a primary/replica pair, a wall-clock
// barrier, and the report plumbing every acceptance experiment shares.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"nvref/internal/server"
)

func verdict(pass bool) string {
	if pass {
		return "PASS"
	}
	return "FAIL"
}

// startServer brings one in-process server up on a loopback listener.
func startServer(cfg server.Config) (*server.Server, string, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, "", err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		srv.Abort()
		return nil, "", err
	}
	return srv, addr.String(), nil
}

// pair is an in-process primary with one replica following it.
type pair struct {
	primary, replica *server.Server
	paddr, raddr     string
	dead             bool // the primary was killed
}

// startPair brings the primary up, points the replica at it, and waits for
// the follower's first pull so write acks are held against replica
// durability from the first operation. The caller's configs carry what is
// specific to the experiment; roles and the follow wiring are set here.
func startPair(pcfg, rcfg server.Config) (*pair, error) {
	pcfg.Role = server.RolePrimary
	primary, paddr, err := startServer(pcfg)
	if err != nil {
		return nil, err
	}
	p := &pair{primary: primary, paddr: paddr}
	rcfg.Role = server.RoleReplica
	rcfg.FollowAddr = paddr
	if p.replica, p.raddr, err = startServer(rcfg); err != nil {
		primary.Abort()
		return nil, err
	}
	if err := waitUntil(5*time.Second, func() bool {
		fs := p.replica.CollectStats().Follower
		return fs != nil && fs.Pulls > 0
	}); err != nil {
		p.close()
		return nil, fmt.Errorf("follower never contacted primary: %w", err)
	}
	return p, nil
}

// kill aborts the primary without ceremony: no final checkpoint, no
// graceful drain.
func (p *pair) kill() {
	p.primary.Abort()
	p.dead = true
}

// awaitPromotion waits for the replica to notice the primary's silence and
// finish promoting itself. The promotion counter moves last — after the
// role flips and the pools are scrubbed — so waiting on it (not on the
// role) means the counters read next are final.
func (p *pair) awaitPromotion() error {
	if err := waitUntil(5*time.Second, func() bool { return p.replica.Promotions() > 0 }); err != nil {
		return fmt.Errorf("replica never promoted itself: %w", err)
	}
	return nil
}

func (p *pair) close() {
	if !p.dead {
		p.kill()
	}
	p.replica.Close()
}

// waitUntil polls cond every millisecond until it holds or the budget runs
// out.
func waitUntil(d time.Duration, cond func() bool) error {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not reached within %s", d)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// WriteJSON emits an experiment document as indented JSON.
func WriteJSON(w io.Writer, doc any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
