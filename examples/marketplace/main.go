// Electronic-marketplace scenario (paper §1: "electronic marketplaces ...
// creating a growing demand for effective management of resources"). Web
// services register offers that strongly reference merchant records; two
// regional repositories subscribe to different market segments. The example
// walks through the trickier parts of cache maintenance: shared
// strong-reference closures, updates that move an offer between segments,
// closure-only updates, unsubscription, and the garbage collector.
package main

import (
	"fmt"
	"log"

	"mdv/mdv"
)

func marketSchema() *mdv.Schema {
	s := mdv.NewSchema()
	s.MustAddProperty("Offer", mdv.PropertyDef{Name: "category", Type: mdv.TypeString})
	s.MustAddProperty("Offer", mdv.PropertyDef{Name: "price", Type: mdv.TypeFloat})
	s.MustAddProperty("Offer", mdv.PropertyDef{Name: "title", Type: mdv.TypeString})
	s.MustAddProperty("Offer", mdv.PropertyDef{
		Name: "soldBy", Type: mdv.TypeResource, RefClass: "Merchant", RefKind: mdv.StrongRef})
	s.MustAddProperty("Merchant", mdv.PropertyDef{Name: "name", Type: mdv.TypeString})
	s.MustAddProperty("Merchant", mdv.PropertyDef{Name: "rating", Type: mdv.TypeFloat})
	// Related offers are weak: browsing hints, never transmitted.
	s.MustAddProperty("Offer", mdv.PropertyDef{
		Name: "related", Type: mdv.TypeResource, RefClass: "Offer",
		RefKind: mdv.WeakRef, SetValued: true})
	return s
}

func merchantDoc(id, name string, rating float64) *mdv.Document {
	doc := mdv.NewDocument("market/merchant-" + id + ".rdf")
	m := doc.NewResource(id, "Merchant")
	m.Add("name", mdv.Lit(name))
	m.Add("rating", mdv.Lit(fmt.Sprint(rating)))
	return doc
}

func offerDoc(id, category, title string, price float64, merchantRef string) *mdv.Document {
	doc := mdv.NewDocument("market/offer-" + id + ".rdf")
	o := doc.NewResource(id, "Offer")
	o.Add("category", mdv.Lit(category))
	o.Add("title", mdv.Lit(title))
	o.Add("price", mdv.Lit(fmt.Sprint(price)))
	o.Add("soldBy", mdv.Ref(merchantRef))
	return doc
}

func dumpCache(label string, repo *mdv.RepositoryNode) {
	offers, _ := repo.Resources("Offer")
	merchants, _ := repo.Resources("Merchant")
	fmt.Printf("%-22s offers=%d merchants=%d\n", label+":", len(offers), len(merchants))
}

func main() {
	schema := marketSchema()
	market, err := mdv.NewProvider("mdp-market", schema)
	if err != nil {
		log.Fatal(err)
	}
	defer market.Close()

	books, err := mdv.NewRepositoryNode("lmr-books", schema, market)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := books.AddSubscription(
		`search Offer o register o where o.category = 'books'`); err != nil {
		log.Fatal(err)
	}
	bargains, err := mdv.NewRepositoryNode("lmr-bargains", schema, market)
	if err != nil {
		log.Fatal(err)
	}
	bargainSub, err := bargains.AddSubscription(
		`search Offer o register o where o.price < 10 and o.soldBy.rating >= 4`)
	if err != nil {
		log.Fatal(err)
	}

	// Merchants and offers appear on the marketplace.
	fmt.Println("== marketplace fills up ==")
	for _, doc := range []*mdv.Document{
		merchantDoc("acme", "ACME Trading", 4.5),
		merchantDoc("cheapo", "Cheapo Inc", 2.0),
		offerDoc("b1", "books", "Distributed Systems", 45.00, "market/merchant-acme.rdf#acme"),
		offerDoc("b2", "books", "Pocket RDF", 8.50, "market/merchant-acme.rdf#acme"),
		offerDoc("g1", "games", "Chess Set", 9.00, "market/merchant-acme.rdf#acme"),
		offerDoc("g2", "games", "Dice", 3.00, "market/merchant-cheapo.rdf#cheapo"), // low rating
	} {
		if err := market.RegisterDocument(doc); err != nil {
			log.Fatal(err)
		}
	}
	dumpCache("books repo", books)       // b1, b2 + acme closure
	dumpCache("bargains repo", bargains) // b2, g1 + acme closure

	// The shared closure: both repositories hold the ACME merchant record
	// because their offers strongly reference it.
	fmt.Println("\n== merchant record update (closure-only) ==")
	if err := market.RegisterDocument(merchantDoc("acme", "ACME Trading Ltd.", 4.8)); err != nil {
		log.Fatal(err)
	}
	for _, repo := range []*mdv.RepositoryNode{books, bargains} {
		m, _ := repo.Query(`search Merchant m register m where m.name contains 'Ltd'`)
		fmt.Printf("%s sees updated merchant: %v\n", repo.Name(), len(m) == 1)
	}

	// A price hike moves an offer out of the bargains segment but not out
	// of the books segment — the classic partial-removal case of §3.5.
	fmt.Println("\n== Pocket RDF price rises to 19.90 ==")
	if err := market.RegisterDocument(
		offerDoc("b2", "books", "Pocket RDF", 19.90, "market/merchant-acme.rdf#acme")); err != nil {
		log.Fatal(err)
	}
	dumpCache("books repo", books)       // still b1, b2
	dumpCache("bargains repo", bargains) // only g1 left

	// The merchant's rating collapses: the remaining bargain loses its
	// soldBy.rating >= 4 support through the *referenced* resource.
	fmt.Println("\n== ACME rating drops to 1.0 ==")
	if err := market.RegisterDocument(merchantDoc("acme", "ACME Trading Ltd.", 1.0)); err != nil {
		log.Fatal(err)
	}
	dumpCache("books repo", books)       // category rule unaffected
	dumpCache("bargains repo", bargains) // empty; closure GC'd too

	// An offer is withdrawn entirely.
	fmt.Println("\n== Distributed Systems withdrawn ==")
	if err := market.DeleteDocument("market/offer-b1.rdf"); err != nil {
		log.Fatal(err)
	}
	dumpCache("books repo", books)

	// The bargains repository changes its mind and unsubscribes; the
	// garbage collector clears whatever the subscription held.
	fmt.Println("\n== bargains repo unsubscribes ==")
	if err := bargains.RemoveSubscription(bargainSub); err != nil {
		log.Fatal(err)
	}
	dumpCache("bargains repo", bargains)

	st := books.Repository().Stats()
	fmt.Printf("\nbooks repo lifetime stats: %d upserts, %d removals, %d forced deletes, %d GC drops\n",
		st.UpsertsApplied, st.RemovalsApplied, st.ForcedDeletes, st.ResourcesDropped)
}
