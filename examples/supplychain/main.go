// Supply-chain scenario exercising the multi-way extension: a continuous
// three-way chain join correlating orders, shipments and customs
// clearances, which arrive asynchronously from different parties. It is
// subscribed like any two-way query; the pipeline generalization of SAI
// indexes the chain at one endpoint and forwards partial matches along the
// value level. Run with:
//
//	go run ./examples/supplychain
package main

import (
	"fmt"
	"log"

	"cqjoin"
)

func main() {
	catalog := cqjoin.MustCatalog(
		cqjoin.MustSchema("Orders", "OrderId", "Customer", "Product"),
		cqjoin.MustSchema("Shipments", "ShipId", "OrderId", "Container"),
		cqjoin.MustSchema("Clearances", "ClearId", "Container", "Port"),
	)
	cluster, err := cqjoin.NewCluster(cqjoin.Config{
		Nodes:     256,
		Catalog:   catalog,
		Algorithm: cqjoin.SAI, // multi-way joins need value-level tuple storage
		Strategy:  cqjoin.StrategyMinRate,
	})
	if err != nil {
		log.Fatal(err)
	}
	cluster.OnNotify(func(n cqjoin.Notification) {
		fmt.Printf("  cleared end-to-end: %s\n", n)
	})

	tracker := cluster.Node(0)
	mq, err := tracker.Subscribe(`
		SELECT O.Customer, S.Container, C.Port
		FROM Orders AS O, Shipments AS S, Clearances AS C
		WHERE O.OrderId = S.OrderId AND S.Container = C.Container`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s tracks order->shipment->clearance chains (query %s, pipeline %s)\n",
		tracker.Key(), mq.Key(), pipeline(mq))

	// Three independent parties feed the network, out of order.
	seller := cluster.Node(10)
	carrier := cluster.Node(20)
	customs := cluster.Node(30)

	customs.Publish("Clearances", 900, "MSKU-1", "Rotterdam") // before anything else
	seller.Publish("Orders", 1, "acme", "widgets")
	seller.Publish("Orders", 2, "globex", "gears")
	carrier.Publish("Shipments", 501, 1, "MSKU-1") // completes order 1 via stored clearance
	carrier.Publish("Shipments", 502, 2, "MSKU-2")
	customs.Publish("Clearances", 901, "MSKU-2", "Hamburg") // completes order 2

	fmt.Printf("chains completed: %d\n", cluster.NotificationCount())
	fmt.Printf("traffic:\n%s\n", cluster.Traffic())
}

func pipeline(mq *cqjoin.Query) string {
	out := ""
	for i, r := range mq.Rels() {
		if i > 0 {
			out += " -> "
		}
		out += r.Name()
	}
	return out
}
