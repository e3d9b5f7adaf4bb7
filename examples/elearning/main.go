// E-learning scenario from Section 3.2 of the thesis: an EDUTELLA-style
// network where research papers are inserted as they are published and
// subscribers are notified about new papers by authors they follow —
// including while they are offline. Run with:
//
//	go run ./examples/elearning
package main

import (
	"fmt"
	"log"

	"cqjoin"
)

func main() {
	catalog := cqjoin.MustCatalog(
		cqjoin.MustSchema("Document", "Id", "Title", "Conference", "AuthorId"),
		cqjoin.MustSchema("Authors", "Id", "Name", "Surname"),
	)
	cluster, err := cqjoin.NewCluster(cqjoin.Config{
		Nodes:   256,
		Catalog: catalog,
		// SAI with the min-rate strategy: author records arrive far less
		// often than documents, so queries are indexed on the quiet side
		// (Section 4.3.6).
		Algorithm: cqjoin.SAI,
		Strategy:  cqjoin.StrategyMinRate,
	})
	if err != nil {
		log.Fatal(err)
	}
	cluster.OnNotify(func(n cqjoin.Notification) {
		fmt.Printf("  -> %s learns: %s (delivered at t=%d)\n", n.Subscriber, n, n.DeliveredAt)
	})

	// Seed the library so arrival-rate statistics exist.
	librarian := cluster.Node(9)
	for i := 0; i < 5; i++ {
		librarian.Publish("Authors", 100+i, "Author", fmt.Sprintf("Nr%d", i))
		librarian.Publish("Document", 200+i, fmt.Sprintf("Old Paper %d", i), "TR", 100+i)
		librarian.Publish("Document", 300+i, fmt.Sprintf("Older Paper %d", i), "TR", 100+i)
	}

	// The thesis query: notify me whenever author Smith publishes.
	reader := cluster.Node(0)
	if _, err := reader.Subscribe(`
		SELECT D.Title, D.Conference
		FROM Document AS D, Authors AS A
		WHERE D.AuthorId = A.Id AND A.Surname = 'Smith'`); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s follows papers by Smith\n", reader.Key())

	// Smith registers and publishes a first paper: one notification.
	librarian.Publish("Authors", 17, "John", "Smith")
	librarian.Publish("Document", 1, "Continuous Queries over DHTs", "ICDE", 17)

	// The reader disconnects; Smith publishes again. The notification is
	// stored at Successor(Id(reader)) per Section 4.6...
	fmt.Printf("%s goes offline\n", reader.Key())
	readerKey := reader.Key()
	reader.Leave()
	librarian.Publish("Document", 2, "Two-way Equi-joins at Scale", "VLDB", 17)

	// ...and replayed when the reader reconnects under the same key.
	fmt.Printf("%s reconnects\n", readerKey)
	if _, err := cluster.Join(readerKey); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("total notifications delivered: %d\n", cluster.NotificationCount())
}
