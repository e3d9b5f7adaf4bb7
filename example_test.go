package cqjoin_test

import (
	"fmt"
	"sort"

	"cqjoin"
)

// The canonical flow: build a cluster, pose a continuous join, insert
// tuples from other peers, receive the notification.
func Example() {
	catalog := cqjoin.MustCatalog(
		cqjoin.MustSchema("Orders", "Id", "Customer", "Product"),
		cqjoin.MustSchema("Shipments", "Id", "Product", "Depot"),
	)
	cluster, err := cqjoin.NewCluster(cqjoin.Config{
		Nodes: 64, Catalog: catalog, Algorithm: cqjoin.DAIT, Seed: 1,
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	alice := cluster.Node(0)
	if _, err := alice.Subscribe(`
		SELECT O.Customer, S.Depot
		FROM Orders AS O, Shipments AS S
		WHERE O.Product = S.Product`); err != nil {
		fmt.Println(err)
		return
	}

	cluster.Node(1).Publish("Orders", 1, "acme", "widget")
	cluster.Node(2).Publish("Shipments", 9, "widget", "rotterdam")

	for _, n := range cluster.Notifications() {
		fmt.Printf("(%s, %s)\n", n.Values[0].Str(), n.Values[1].Str())
	}
	// Output:
	// (acme, rotterdam)
}

// Selective predicates conjoin with the join condition; only matching
// pairs notify (the thesis's Section 3.2 e-learning query).
func ExampleNode_Subscribe() {
	catalog := cqjoin.MustCatalog(
		cqjoin.MustSchema("Document", "Id", "Title", "Conference", "AuthorId"),
		cqjoin.MustSchema("Authors", "Id", "Name", "Surname"),
	)
	cluster, _ := cqjoin.NewCluster(cqjoin.Config{Nodes: 64, Catalog: catalog, Seed: 1})
	cluster.Node(0).Subscribe(`
		SELECT D.Title, D.Conference
		FROM Document AS D, Authors AS A
		WHERE D.AuthorId = A.Id AND A.Surname = 'Smith'`)

	lib := cluster.Node(5)
	lib.Publish("Authors", 17, "John", "Smith")
	lib.Publish("Authors", 18, "Ann", "Jones")
	lib.Publish("Document", 1, "P2P Joins", "ICDE", 17)
	lib.Publish("Document", 2, "Other Topic", "VLDB", 18)

	for _, n := range cluster.Notifications() {
		fmt.Printf("%s @ %s\n", n.Values[0].Str(), n.Values[1].Str())
	}
	// Output:
	// P2P Joins @ ICDE
}

// Subscribe takes a multi-way chain join too: here three asynchronous
// streams, correlated whatever order their tuples arrive in.
func ExampleNode_Subscribe_chain() {
	catalog := cqjoin.MustCatalog(
		cqjoin.MustSchema("Orders", "OrderId", "Customer"),
		cqjoin.MustSchema("Shipments", "OrderId", "Container"),
		cqjoin.MustSchema("Clearances", "Container", "Port"),
	)
	cluster, _ := cqjoin.NewCluster(cqjoin.Config{Nodes: 64, Catalog: catalog, Seed: 1})
	cluster.Node(0).Subscribe(`
		SELECT O.Customer, C.Port
		FROM Orders AS O, Shipments AS S, Clearances AS C
		WHERE O.OrderId = S.OrderId AND S.Container = C.Container`)

	cluster.Node(1).Publish("Clearances", "MSKU-1", "Rotterdam") // first!
	cluster.Node(2).Publish("Orders", 1, "acme")
	cluster.Node(3).Publish("Shipments", 1, "MSKU-1")

	for _, n := range cluster.Notifications() {
		fmt.Printf("%s cleared at %s\n", n.Values[0].Str(), n.Values[1].Str())
	}
	// Output:
	// acme cleared at Rotterdam
}

// The traffic ledger and load distributions quantify what the overlay did.
func ExampleCluster_FilteringLoad() {
	catalog := cqjoin.MustCatalog(
		cqjoin.MustSchema("R", "A", "B"),
		cqjoin.MustSchema("S", "D", "E"),
	)
	cluster, _ := cqjoin.NewCluster(cqjoin.Config{Nodes: 32, Catalog: catalog, Seed: 1})
	cluster.Node(0).Subscribe(`SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	for i := 0; i < 10; i++ {
		cluster.Node(i).Publish("R", i, i%3)
		cluster.Node(i+10).Publish("S", i, i%3)
	}
	dist := cluster.FilteringLoad()
	fmt.Printf("nodes that did filtering work: %d of %d\n", dist.NonZero, dist.N)
	fmt.Printf("notifications delivered: %d\n", len(cluster.Notifications()))
	// Output:
	// nodes that did filtering work: 7 of 32
	// notifications delivered: 34
}

// Notifications arrive through a callback as well; ContentKey gives a
// stable identity for deduplication on the consumer side.
func ExampleCluster_OnNotify() {
	catalog := cqjoin.MustCatalog(
		cqjoin.MustSchema("R", "A", "B"),
		cqjoin.MustSchema("S", "D", "E"),
	)
	cluster, _ := cqjoin.NewCluster(cqjoin.Config{Nodes: 32, Catalog: catalog, Algorithm: cqjoin.DAIQ, Seed: 1})
	var keys []string
	cluster.OnNotify(func(n cqjoin.Notification) { keys = append(keys, n.ContentKey()) })

	cluster.Node(0).Subscribe(`SELECT R.A FROM R, S WHERE R.B = S.E`)
	cluster.Node(1).Publish("R", 1, 7)
	cluster.Node(2).Publish("R", 2, 7)
	cluster.Node(3).Publish("S", 0, 7)

	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k)
	}
	// Output:
	// peer5#1|1
	// peer5#1|2
}
