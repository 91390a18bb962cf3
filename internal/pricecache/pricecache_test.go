package pricecache

import (
	"fmt"
	"testing"

	"qtrade/internal/cost"
	"qtrade/internal/localopt"
)

func key(sql string, epoch, statsV int64) Key {
	return Key{SQL: sql, Epoch: epoch, StatsVersion: statsV, CostHash: 42}
}

func entry() Entry { return Entry{Result: &localopt.Result{}} }

func TestGetPutAndStats(t *testing.T) {
	c := New(4)
	k := key("SELECT 1", 1, 1)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	e := entry()
	c.Put(k, e)
	got, ok := c.Get(k)
	if !ok || got.Result != e.Result {
		t.Fatal("stored entry not returned")
	}
	hits, misses, evictions := c.Stats()
	if hits != 1 || misses != 1 || evictions != 0 {
		t.Fatalf("stats = %d/%d/%d, want 1/1/0", hits, misses, evictions)
	}
}

func TestEpochChangeMisses(t *testing.T) {
	c := New(4)
	c.Put(key("q", 1, 1), entry())
	for _, k := range []Key{
		key("q", 2, 1), // data epoch moved
		key("q", 1, 2), // stats version moved
		{SQL: "q", Epoch: 1, StatsVersion: 1, CostHash: 7}, // different cost model
	} {
		if _, ok := c.Get(k); ok {
			t.Fatalf("stale hit for %+v", k)
		}
	}
	if _, ok := c.Get(key("q", 1, 1)); !ok {
		t.Fatal("original key should still hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	k0, k1, k2 := key("q0", 1, 1), key("q1", 1, 1), key("q2", 1, 1)
	c.Put(k0, entry())
	c.Put(k1, entry())
	c.Get(k0) // touch k0 so k1 is now the LRU victim
	if ev := c.Put(k2, entry()); ev != 1 {
		t.Fatalf("evicted %d, want 1", ev)
	}
	if _, ok := c.Get(k1); ok {
		t.Fatal("LRU entry k1 survived eviction")
	}
	if _, ok := c.Get(k0); !ok {
		t.Fatal("recently used k0 was evicted")
	}
	if _, ok := c.Get(k2); !ok {
		t.Fatal("new entry k2 missing")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

func TestPutExistingUpdates(t *testing.T) {
	c := New(2)
	k := key("q", 1, 1)
	c.Put(k, entry())
	e2 := entry()
	if ev := c.Put(k, e2); ev != 0 {
		t.Fatalf("update evicted %d entries", ev)
	}
	got, _ := c.Get(k)
	if got.Result != e2.Result {
		t.Fatal("update did not replace entry")
	}
}

func TestNegativeEntry(t *testing.T) {
	c := New(2)
	k := key("SELECT x.a FROM nowhere x", 1, 1)
	c.Put(k, Entry{})
	got, ok := c.Get(k)
	if !ok || !got.Negative() {
		t.Fatalf("negative entry not returned as negative: ok=%v %+v", ok, got)
	}
	if entry().Negative() {
		t.Fatal("entry with a DP result reported negative")
	}
}

func TestHashModelDistinguishesModels(t *testing.T) {
	a, b := cost.Default(), cost.Default()
	if HashModel(a) != HashModel(b) {
		t.Fatal("equal models hash differently")
	}
	b.NetLatency *= 2
	if HashModel(a) == HashModel(b) {
		t.Fatal("different models collide")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(8)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				k := key(fmt.Sprintf("q%d", (g+i)%16), 1, 1)
				if _, ok := c.Get(k); !ok {
					c.Put(k, entry())
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
