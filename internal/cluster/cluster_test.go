package cluster

import (
	"errors"
	"testing"

	"nvref/internal/pmem"
)

// TestNewDeals: the bootstrap map covers every slot, deals them evenly,
// and is identical for every node computing it from the same peer list.
func TestNewDeals(t *testing.T) {
	nodes := []string{"a:1", "b:1", "c:1"}
	m, err := New(8, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 1 {
		t.Fatalf("bootstrap epoch = %d", m.Epoch)
	}
	total := 0
	for _, n := range nodes {
		owned := m.Owned(n)
		if owned < 2 || owned > 3 {
			t.Fatalf("node %s owns %d of 8 slots", n, owned)
		}
		total += owned
	}
	if total != 8 {
		t.Fatalf("owned total = %d", total)
	}
	m2, err := New(8, nodes)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 8; slot++ {
		if m.OwnerOf(slot) != m2.OwnerOf(slot) {
			t.Fatalf("slot %d: %s vs %s", slot, m.OwnerOf(slot), m2.OwnerOf(slot))
		}
	}
}

// TestNewBounds: out-of-range shapes are refused.
func TestNewBounds(t *testing.T) {
	if _, err := New(0, []string{"a"}); err == nil {
		t.Error("0 slots accepted")
	}
	if _, err := New(MaxSlots+1, []string{"a"}); err == nil {
		t.Error("oversized slot count accepted")
	}
	if _, err := New(4, nil); err == nil {
		t.Error("empty node list accepted")
	}
	if _, err := New(4, []string{""}); err == nil {
		t.Error("empty address accepted")
	}
}

// TestWithOwnerEpochMonotonic: every ownership edit advances the epoch by
// exactly one and leaves the receiver untouched — the property the
// install-side "reject epoch <= current" check relies on.
func TestWithOwnerEpochMonotonic(t *testing.T) {
	m, err := New(4, []string{"a:1", "b:1"})
	if err != nil {
		t.Fatal(err)
	}
	cur := m
	for i := 0; i < 5; i++ {
		next, err := cur.WithOwner(i%4, "c:1")
		if err != nil {
			t.Fatal(err)
		}
		if next.Epoch != cur.Epoch+1 {
			t.Fatalf("edit %d: epoch %d after %d", i, next.Epoch, cur.Epoch)
		}
		if next.OwnerOf(i%4) != "c:1" {
			t.Fatalf("edit %d: owner %s", i, next.OwnerOf(i%4))
		}
		cur = next
	}
	if m.Epoch != 1 {
		t.Fatalf("original mutated to epoch %d", m.Epoch)
	}
	if m.NodeIndex("c:1") != -1 {
		t.Fatal("original grew a node")
	}
	// The joining node was appended exactly once.
	if n := len(cur.Nodes); n != 3 {
		t.Fatalf("node list grew to %d", n)
	}
	if _, err := cur.WithOwner(99, "c:1"); err == nil {
		t.Error("out-of-range slot accepted")
	}
}

// TestEncodeDecodeRoundTrip: the image is bijective over representative
// maps.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	m, err := New(64, []string{"127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"})
	if err != nil {
		t.Fatal(err)
	}
	m, err = m.WithOwner(5, "127.0.0.1:7004")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != m.Epoch || got.Slots != m.Slots || len(got.Nodes) != len(m.Nodes) {
		t.Fatalf("round trip: %+v vs %+v", got, m)
	}
	for slot := 0; slot < m.Slots; slot++ {
		if got.OwnerOf(slot) != m.OwnerOf(slot) {
			t.Fatalf("slot %d: %s vs %s", slot, got.OwnerOf(slot), m.OwnerOf(slot))
		}
	}
}

// TestDecodeHardening: corrupt or hostile images are ErrBadMap, never a
// panic.
func TestDecodeHardening(t *testing.T) {
	m, _ := New(8, []string{"a:1", "b:1"})
	good := m.Encode()

	if _, err := Decode(nil); !errors.Is(err, ErrBadMap) {
		t.Errorf("nil: %v", err)
	}
	if _, err := Decode([]byte("NVCLMAP1")); !errors.Is(err, ErrBadMap) {
		t.Errorf("short: %v", err)
	}
	// Flip one byte anywhere: the CRC must catch it.
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Fatalf("flipped byte %d accepted", i)
		}
	}
	// Truncations must be refused.
	for n := 0; n < len(good); n++ {
		if _, err := Decode(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

// TestRebalancePlan: a fourth node joining a 3-node map is planned to
// within one slot of its fair share, moving only what it must.
func TestRebalancePlan(t *testing.T) {
	m, err := New(12, []string{"a:1", "b:1", "c:1"})
	if err != nil {
		t.Fatal(err)
	}
	target, err := RebalanceTarget(m, "d:1")
	if err != nil {
		t.Fatal(err)
	}
	if target.Owned("d:1") != 3 {
		t.Fatalf("joiner owns %d of 12 slots", target.Owned("d:1"))
	}
	for _, n := range []string{"a:1", "b:1", "c:1"} {
		if o := target.Owned(n); o != 3 {
			t.Fatalf("node %s owns %d after rebalance", n, o)
		}
	}
	moves := PlanMoves(m, target)
	if len(moves) != 3 {
		t.Fatalf("planned %d moves (%v), want 3", len(moves), moves)
	}
	for _, mv := range moves {
		if mv.To != "d:1" {
			t.Fatalf("move %+v not toward the joiner", mv)
		}
		if m.OwnerOf(mv.Slot) != mv.From {
			t.Fatalf("move %+v: current owner %s", mv, m.OwnerOf(mv.Slot))
		}
	}
	// A balanced map plans nothing.
	if again := mustTarget(t, target, "d:1"); len(PlanMoves(target, again)) != 0 {
		t.Error("balanced map planned moves")
	}
}

func mustTarget(t *testing.T, m *Map, addr string) *Map {
	t.Helper()
	target, err := RebalanceTarget(m, addr)
	if err != nil {
		t.Fatal(err)
	}
	return target
}

// TestSaveLoad: the persistent image round-trips through a pmem store,
// a missing image is (nil, nil), and a corrupted image is refused.
func TestSaveLoad(t *testing.T) {
	store := pmem.NewMemStore()
	if m, err := Load(store); err != nil || m != nil {
		t.Fatalf("empty store: %v, %v", m, err)
	}
	m, err := New(16, []string{"a:1", "b:1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(store, m); err != nil {
		t.Fatal(err)
	}
	got, err := Load(store)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Epoch != m.Epoch || got.Slots != m.Slots {
		t.Fatalf("load: %+v", got)
	}
	// Overwrite with a later epoch; the newest image wins.
	m2, err := m.WithOwner(0, "c:1")
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(store, m2); err != nil {
		t.Fatal(err)
	}
	got, err = Load(store)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != m2.Epoch {
		t.Fatalf("reloaded epoch %d, want %d", got.Epoch, m2.Epoch)
	}
}

// TestLoadChecksZeroSum: a map image saved with Meta.Sum 0 over bytes whose
// checksum is not 0 is refused like any other mismatch.
func TestLoadChecksZeroSum(t *testing.T) {
	m, err := New(16, []string{"a:1", "b:1"})
	if err != nil {
		t.Fatal(err)
	}
	store := pmem.NewMemStore()
	data := m.Encode()
	if err := store.Save(pmem.Meta{Name: mapImageName, Size: uint64(len(data))}, data); err != nil {
		t.Fatal(err)
	}
	if got, err := Load(store); !errors.Is(err, pmem.ErrCorrupt) {
		t.Fatalf("map saved with Sum 0: %v, %v; want ErrCorrupt", got, err)
	}
}
