package cqjoin_test

import (
	"sync"
	"testing"

	"cqjoin"
	"cqjoin/internal/chaos"
	"cqjoin/internal/engine"
)

func demoCatalog() *cqjoin.Catalog {
	return cqjoin.MustCatalog(
		cqjoin.MustSchema("Document", "Id", "Title", "Conference", "AuthorId"),
		cqjoin.MustSchema("Authors", "Id", "Name", "Surname"),
		cqjoin.MustSchema("R", "A", "B"),
		cqjoin.MustSchema("S", "D", "E"),
	)
}

func TestClusterQuickstartFlow(t *testing.T) {
	cluster, err := cqjoin.NewCluster(cqjoin.Config{Nodes: 64, Catalog: demoCatalog()})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	if cluster.Size() != 64 {
		t.Fatalf("size = %d", cluster.Size())
	}

	var mu sync.Mutex
	var seen []cqjoin.Notification
	cluster.OnNotify(func(n cqjoin.Notification) {
		mu.Lock()
		defer mu.Unlock()
		seen = append(seen, n)
	})

	alice := cluster.Node(0)
	q, err := alice.Subscribe(`
		SELECT D.Title, D.Conference
		FROM Document AS D, Authors AS A
		WHERE D.AuthorId = A.Id AND A.Surname = 'Smith'`)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	bob := cluster.Node(1)
	if _, err := bob.Publish("Authors", 17, "John", "Smith"); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if _, err := bob.Publish("Document", 1, "P2P Joins", "ICDE", 17); err != nil {
		t.Fatalf("Publish: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 {
		t.Fatalf("callback saw %d notifications, want 1", len(seen))
	}
	if seen[0].QueryKey != q.Key() {
		t.Fatalf("notification for %s, want %s", seen[0].QueryKey, q.Key())
	}
	// The callback took the notification: the cluster counts it and keeps
	// none; with the callback gone, the next one is the cluster's to record.
	if got := cluster.Notifications(); len(got) != 0 || cluster.NotificationCount() != 1 {
		t.Fatalf("under a callback Notifications() = %d entries, NotificationCount() = %d; want 0 and 1", len(got), cluster.NotificationCount())
	}
	cluster.OnNotify(nil)
	if _, err := bob.Publish("Document", 2, "Overlay Joins", "VLDB", 17); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if got := cluster.Notifications(); len(seen) != 1 || len(got) != 1 || got[0].Values[0].Str() != "Overlay Joins" || cluster.NotificationCount() != 2 {
		t.Fatalf("without a callback Notifications() = %v, NotificationCount() = %d, %d callback calls", got, cluster.NotificationCount(), len(seen))
	}
	if cluster.Traffic().TotalHops() == 0 {
		t.Fatal("no overlay traffic recorded")
	}
	if cluster.FilteringLoad().Total == 0 || cluster.StorageLoad().Total == 0 {
		t.Fatal("no load recorded")
	}
}

func TestClusterConfigValidation(t *testing.T) {
	if _, err := cqjoin.NewCluster(cqjoin.Config{Nodes: 0, Catalog: demoCatalog()}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := cqjoin.NewCluster(cqjoin.Config{Nodes: 4}); err == nil {
		t.Fatal("missing catalog accepted")
	}
}

func TestPublishValueConversions(t *testing.T) {
	cluster, _ := cqjoin.NewCluster(cqjoin.Config{Nodes: 8, Catalog: demoCatalog()})
	n := cluster.Node(0)
	if _, err := n.Publish("R", int64(1), float32(2.5)); err != nil {
		t.Fatalf("numeric conversions: %v", err)
	}
	if _, err := n.Publish("R", cqjoin.N(1), cqjoin.S("x")); err != nil {
		t.Fatalf("Value passthrough: %v", err)
	}
	if _, err := n.Publish("R", 1); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := n.Publish("R", struct{}{}, 1); err == nil {
		t.Fatal("unsupported type accepted")
	}
	if _, err := n.Publish("Nope", 1); err == nil {
		t.Fatal("unknown relation accepted")
	}
}

func TestPublishTuple(t *testing.T) {
	cat := demoCatalog()
	cluster, _ := cqjoin.NewCluster(cqjoin.Config{Nodes: 8, Catalog: cat})
	tu := cqjoin.MustTuple(cat.Lookup("R"), cqjoin.N(1), cqjoin.N(2))
	stamped, err := cluster.Node(0).PublishTuple(tu)
	if err != nil {
		t.Fatalf("PublishTuple: %v", err)
	}
	if stamped.PubT() == 0 {
		t.Fatal("tuple not stamped")
	}
}

func TestJoinLeaveAndOfflineDelivery(t *testing.T) {
	cluster, _ := cqjoin.NewCluster(cqjoin.Config{Nodes: 32, Catalog: demoCatalog()})
	sub := cluster.Node(3)
	key := sub.Key()
	if _, err := sub.Subscribe(`SELECT R.A, S.D FROM R, S WHERE R.B = S.E`); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	pub := cluster.Node(7)
	if _, err := pub.Publish("R", 1, 7); err != nil {
		t.Fatal(err)
	}
	sub.Leave()
	if sub.Alive() {
		t.Fatal("still alive after Leave")
	}
	if _, err := pub.Publish("S", 2, 7); err != nil {
		t.Fatal(err)
	}
	if got := cluster.Notifications(); len(got) != 0 {
		t.Fatalf("offline subscriber received: %v", got)
	}
	if cluster.NodeByKey(key) != nil {
		t.Fatal("NodeByKey returned departed peer")
	}
	if _, err := cluster.Join(key); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if got := cluster.Notifications(); len(got) != 1 {
		t.Fatalf("stored notification not replayed: %v", got)
	}
}

func TestSubscribeMultiThroughPublicAPI(t *testing.T) {
	catalog := cqjoin.MustCatalog(
		cqjoin.MustSchema("A", "x", "y"),
		cqjoin.MustSchema("B", "x", "y"),
		cqjoin.MustSchema("C", "x", "y"),
	)
	cluster, _ := cqjoin.NewCluster(cqjoin.Config{Nodes: 64, Catalog: catalog})
	mq, err := cluster.Node(0).Subscribe(`
		SELECT A.y, C.y FROM A, B, C WHERE A.x = B.y AND B.x = C.y`)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if mq.Arity() != 3 {
		t.Fatalf("arity = %d", mq.Arity())
	}
	cluster.Node(1).Publish("A", 1, 10)
	cluster.Node(2).Publish("B", 2, 1)
	cluster.Node(3).Publish("C", 0, 2)
	if got := cluster.Notifications(); len(got) != 1 {
		t.Fatalf("%d notifications, want 1", len(got))
	}
	// Multi-way needs tuple storage: DAIT cluster must reject it.
	daitCluster, _ := cqjoin.NewCluster(cqjoin.Config{Nodes: 16, Catalog: catalog, Algorithm: cqjoin.DAIT})
	if _, err := daitCluster.Node(0).Subscribe(`SELECT A.y FROM A, B, C WHERE A.x = B.y AND B.x = C.y`); err == nil {
		t.Fatal("DAIT accepted a multi-way query")
	}
}

func TestUnsubscribeThroughPublicAPI(t *testing.T) {
	cluster, _ := cqjoin.NewCluster(cqjoin.Config{Nodes: 32, Catalog: demoCatalog()})
	sub := cluster.Node(0)
	q, err := sub.Subscribe(`SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Unsubscribe(q); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}
	cluster.Node(1).Publish("R", 1, 7)
	cluster.Node(2).Publish("S", 2, 7)
	if got := cluster.Notifications(); len(got) != 0 {
		t.Fatalf("retracted query notified: %v", got)
	}
}

func TestNodeIndexWrapsAround(t *testing.T) {
	cluster, _ := cqjoin.NewCluster(cqjoin.Config{Nodes: 4, Catalog: demoCatalog()})
	if cluster.Node(4).Key() != cluster.Node(0).Key() {
		t.Fatal("Node index does not wrap")
	}
	if cluster.Node(-1).Key() != cluster.Node(3).Key() {
		t.Fatal("negative index does not wrap")
	}
}

// nodeSink keeps the handle Cluster.Node returns on the heap, as a caller does.
var nodeSink *cqjoin.Node

// TestClusterNodeAllocatesOnlyItsHandle pins the daemon's per-request lookup
// (Server.localNode): indexing the ring must not copy it, whatever its size.
func TestClusterNodeAllocatesOnlyItsHandle(t *testing.T) {
	cluster, err := cqjoin.NewCluster(cqjoin.Config{Nodes: 2048, Catalog: demoCatalog()})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	if allocs := testing.AllocsPerRun(100, func() { i++; nodeSink = cluster.Node(i) }); allocs != 1 {
		t.Fatalf("Cluster.Node allocates %.0f times at 2048 nodes, want 1 (the handle)", allocs)
	}
}

// TestConcurrentPublishersAndSubscribers drives the engine the way the
// daemon and cqbench do — plain Publish calls from several goroutines —
// and holds the outcome to the centralized oracle.
func TestConcurrentPublishersAndSubscribers(t *testing.T) {
	cluster, _ := cqjoin.NewCluster(cqjoin.Config{Nodes: 64, Catalog: demoCatalog(), UseJFRT: true, Seed: 2})
	oracle := engine.NewOracle()
	for w := 0; w < 4; w++ {
		q, err := cluster.Node(w).Subscribe(`SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
		if err != nil {
			t.Fatalf("subscribe: %v", err)
		}
		oracle.AddQuery(q)
	}
	var oracleMu sync.Mutex
	publish := func(n *cqjoin.Node, rel string, values ...interface{}) bool {
		tu, err := n.Publish(rel, values...)
		if err != nil {
			t.Errorf("publish %s: %v", rel, err)
			return false
		}
		oracleMu.Lock()
		oracle.AddTuple(tu)
		oracleMu.Unlock()
		return true
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if !publish(cluster.Node(w), "R", w*100+i, i%5) ||
					!publish(cluster.Node(w+10), "S", w*100+i, i%5) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	notifs := cluster.Notifications()
	if err := chaos.Complete(oracle, notifs); err != nil {
		t.Error(err)
	}
	if err := chaos.NoDuplicateDeliveries(notifs); err != nil {
		t.Error(err)
	}
	if cluster.FilteringLoad().Total == 0 {
		t.Fatal("no load recorded")
	}
}

func TestAllAlgorithmsThroughPublicAPI(t *testing.T) {
	for _, alg := range []cqjoin.Algorithm{cqjoin.SAI, cqjoin.DAIQ, cqjoin.DAIT, cqjoin.DAIV} {
		cluster, err := cqjoin.NewCluster(cqjoin.Config{
			Nodes: 32, Catalog: demoCatalog(), Algorithm: alg, UseJFRT: true, Seed: 9,
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if _, err := cluster.Node(0).Subscribe(`SELECT R.A, S.D FROM R, S WHERE R.B = S.E`); err != nil {
			t.Fatalf("%v subscribe: %v", alg, err)
		}
		cluster.Node(1).Publish("R", 1, 5)
		cluster.Node(2).Publish("S", 2, 5)
		if got := cluster.Notifications(); len(got) != 1 {
			t.Fatalf("%v: %d notifications", alg, len(got))
		}
	}
}
