package tpch

import (
	"fmt"
	"strings"

	"gignite/internal/types"
)

// Gen is a deterministic TPC-H data generator. It follows the official
// schema, key correlations and value distributions (dates, flags, name
// vocabularies) at a configurable scale factor; identical (SF, Seed)
// inputs always produce identical data.
type Gen struct {
	SF   float64
	Seed uint64
}

// NewGen creates a generator for the given scale factor.
func NewGen(sf float64) *Gen { return &Gen{SF: sf, Seed: 0x67696E69} }

// rng is a splitmix64 stream, seeded per (table, row) so each row is
// independently reproducible.
type rng struct{ state uint64 }

func (g *Gen) rowRNG(table string, row int64) *rng {
	h := g.Seed
	for i := 0; i < len(table); i++ {
		h = (h ^ uint64(table[i])) * 0x100000001b3
	}
	h ^= uint64(row) * 0x9E3779B97F4A7C15
	return &rng{state: h}
}

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform integer in [lo, hi].
func (r *rng) intn(lo, hi int64) int64 {
	if hi <= lo {
		return lo
	}
	return lo + int64(r.next()%uint64(hi-lo+1))
}

// decimal returns a uniform value in [lo, hi] with two decimals.
func (r *rng) decimal(lo, hi float64) float64 {
	cents := r.intn(int64(lo*100), int64(hi*100))
	return float64(cents) / 100
}

func (r *rng) pick(options []string) string {
	return options[r.next()%uint64(len(options))]
}

// Cardinalities.

// Counts returns the base-table cardinalities at the generator's scale
// factor (PARTSUPP is 4 rows per part; LINEITEM averages 4 per order).
func (g *Gen) Counts() map[string]int64 {
	scale := func(base float64) int64 {
		n := int64(base * g.SF)
		if n < 5 {
			n = 5
		}
		return n
	}
	return map[string]int64{
		"region":   5,
		"nation":   25,
		"supplier": scale(10000),
		"customer": scale(150000),
		"part":     scale(200000),
		"orders":   scale(1500000),
	}
}

// Vocabularies (official TPC-H lists).

var regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

var nationDefs = []struct {
	name   string
	region int64
}{
	{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1}, {"EGYPT", 4},
	{"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3}, {"INDIA", 2}, {"INDONESIA", 2},
	{"IRAN", 4}, {"IRAQ", 4}, {"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0},
	{"MOROCCO", 0}, {"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
	{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3}, {"UNITED KINGDOM", 3},
	{"UNITED STATES", 1},
}

var segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}

var priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}

var shipModes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}

var shipInstructs = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}

var typeSyllable1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
var typeSyllable2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
var typeSyllable3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}

var containerSyllable1 = []string{"SM", "LG", "MED", "JUMBO", "WRAP"}
var containerSyllable2 = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}

var colors = []string{
	"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
	"blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse",
	"chiffon", "chocolate", "coral", "cornflower", "cornsilk", "cream", "cyan",
	"dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest",
	"frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew",
	"hot", "indian", "ivory", "khaki", "lace", "lavender", "lawn", "lemon",
	"light", "lime", "linen", "magenta", "maroon", "medium", "metallic", "midnight",
	"mint", "misty", "moccasin", "navajo", "navy", "olive", "orange", "orchid",
	"pale", "papaya", "peach", "peru", "pink", "plum", "powder", "puff", "purple",
	"red", "rose", "rosy", "royal", "saddle", "salmon", "sandy", "seashell",
	"sienna", "sky", "slate", "smoke", "snow", "spring", "steel", "tan", "thistle",
	"tomato", "turquoise", "violet", "wheat", "white", "yellow",
}

var commentWords = []string{
	"carefully", "quickly", "furiously", "slyly", "blithely", "deposits",
	"requests", "packages", "accounts", "instructions", "theodolites", "pinto",
	"beans", "foxes", "ideas", "dependencies", "excuses", "platelets", "asymptotes",
	"courts", "dolphins", "multipliers", "sauternes", "warthogs", "frets", "dinos",
	"attainments", "somas", "braids", "hockey", "players", "about", "final",
	"pending", "express", "regular", "even", "special", "bold", "ironic", "unusual",
}

// epochDay converts a calendar date to days since 1970-01-01 via
// types.DateFromYMD.
func epochDay(y, m, d int) int64 { return types.DateFromYMD(y, m, d).I }

var (
	startDate = epochDay(1992, 1, 1)
	endDate   = epochDay(1998, 8, 2)
	// currentDate is TPC-H's 1995-06-17 flag cutoff.
	currentDate = epochDay(1995, 6, 17)
)

// comment joins n words drawn from commentWords into one string,
// allocated once at its exact length instead of once per word.
func (r *rng) comment(n int) string {
	var buf [12]string // the longest comment's words, kept on the stack
	words := buf[:0]
	for i := 0; i < n; i++ {
		words = append(words, r.pick(commentWords))
	}
	return strings.Join(words, " ")
}

// Table generates the full content of one table.
func (g *Gen) Table(name string) ([]types.Row, error) {
	switch name {
	case "region":
		return g.regions(), nil
	case "nation":
		return g.nations(), nil
	case "supplier":
		return g.suppliers(), nil
	case "customer":
		return g.customers(), nil
	case "part":
		return g.parts(), nil
	case "partsupp":
		return g.partsupps(), nil
	case "orders":
		return g.orders(), nil
	case "lineitem":
		return g.lineitems(), nil
	default:
		return nil, fmt.Errorf("tpch: unknown table %s", name)
	}
}

func (g *Gen) regions() []types.Row {
	rows := make([]types.Row, 5)
	for i := int64(0); i < 5; i++ {
		r := g.rowRNG("region", i)
		rows[i] = types.Row{
			types.NewInt(i),
			types.NewString(regionNames[i]),
			types.NewString(r.comment(6)),
		}
	}
	return rows
}

func (g *Gen) nations() []types.Row {
	rows := make([]types.Row, 25)
	for i := int64(0); i < 25; i++ {
		r := g.rowRNG("nation", i)
		rows[i] = types.Row{
			types.NewInt(i),
			types.NewString(nationDefs[i].name),
			types.NewInt(nationDefs[i].region),
			types.NewString(r.comment(6)),
		}
	}
	return rows
}

func phone(nationkey int64, r *rng) string {
	return fmt.Sprintf("%02d-%03d-%03d-%04d", 10+nationkey,
		r.intn(100, 999), r.intn(100, 999), r.intn(1000, 9999))
}

func (g *Gen) suppliers() []types.Row {
	n := g.Counts()["supplier"]
	rows := make([]types.Row, n)
	for i := int64(0); i < n; i++ {
		r := g.rowRNG("supplier", i)
		key := i + 1
		nation := r.intn(0, 24)
		comment := r.comment(8)
		// The spec plants "Customer ... Complaints" in ~5 per 10000
		// suppliers (exercised by Q16).
		if r.intn(0, 1999) == 0 {
			comment = "blithely special Customer slyly express Complaints " + comment
		}
		rows[i] = types.Row{
			types.NewInt(key),
			types.NewString(fmt.Sprintf("Supplier#%09d", key)),
			types.NewString(r.comment(3)),
			types.NewInt(nation),
			types.NewString(phone(nation, r)),
			types.NewFloat(r.decimal(-999.99, 9999.99)),
			types.NewString(comment),
		}
	}
	return rows
}

func (g *Gen) customers() []types.Row {
	n := g.Counts()["customer"]
	rows := make([]types.Row, n)
	for i := int64(0); i < n; i++ {
		r := g.rowRNG("customer", i)
		key := i + 1
		nation := r.intn(0, 24)
		rows[i] = types.Row{
			types.NewInt(key),
			types.NewString(fmt.Sprintf("Customer#%09d", key)),
			types.NewString(r.comment(3)),
			types.NewInt(nation),
			types.NewString(phone(nation, r)),
			types.NewFloat(r.decimal(-999.99, 9999.99)),
			types.NewString(r.pick(segments)),
			types.NewString(r.comment(10)),
		}
	}
	return rows
}

func retailPrice(partkey int64) float64 {
	return float64(90000+(partkey/10)%20001+100*(partkey%1000)) / 100
}

func (g *Gen) parts() []types.Row {
	n := g.Counts()["part"]
	rows := make([]types.Row, n)
	for i := int64(0); i < n; i++ {
		r := g.rowRNG("part", i)
		key := i + 1
		name := r.pick(colors) + " " + r.pick(colors) + " " + r.pick(colors) + " " +
			r.pick(colors) + " " + r.pick(colors)
		mfgr := r.intn(1, 5)
		brand := mfgr*10 + r.intn(1, 5)
		ptype := r.pick(typeSyllable1) + " " + r.pick(typeSyllable2) + " " + r.pick(typeSyllable3)
		rows[i] = types.Row{
			types.NewInt(key),
			types.NewString(name),
			types.NewString(fmt.Sprintf("Manufacturer#%d", mfgr)),
			types.NewString(fmt.Sprintf("Brand#%d", brand)),
			types.NewString(ptype),
			types.NewInt(r.intn(1, 50)),
			types.NewString(r.pick(containerSyllable1) + " " + r.pick(containerSyllable2)),
			types.NewFloat(retailPrice(key)),
			types.NewString(r.comment(2)),
		}
	}
	return rows
}

// suppliersPerPart is the spec's 4 PARTSUPP rows per part.
const suppliersPerPart = 4

// suppForPart returns the i-th (0..3) of s suppliers for a part.
func suppForPart(partkey, i, s int64) int64 {
	return (partkey+i*(s/suppliersPerPart+(partkey-1)/s))%s + 1
}

func (g *Gen) partsupps() []types.Row {
	counts := g.Counts()
	parts, suppliers := counts["part"], counts["supplier"]
	rows := make([]types.Row, 0, parts*suppliersPerPart)
	for p := int64(1); p <= parts; p++ {
		for i := int64(0); i < suppliersPerPart; i++ {
			r := g.rowRNG("partsupp", p*suppliersPerPart+i)
			rows = append(rows, types.Row{
				types.NewInt(p),
				types.NewInt(suppForPart(p, i, suppliers)),
				types.NewInt(r.intn(1, 9999)),
				types.NewFloat(r.decimal(1, 1000)),
				types.NewString(r.comment(12)),
			})
		}
	}
	return rows
}

func (g *Gen) orders() []types.Row {
	n := g.Counts()["orders"]
	customers := g.Counts()["customer"]
	rows := make([]types.Row, n)
	for i := int64(0); i < n; i++ {
		r := g.rowRNG("orders", i)
		key := i + 1
		// The spec skips a third of customer keys (custkey % 3 != 0 never
		// ordered is Q13/Q22 relevant); emulate by mapping to 2/3 of keys.
		cust := r.intn(1, customers)
		if cust%3 == 0 {
			cust++
			if cust > customers {
				cust = 1
			}
		}
		orderDate := r.intn(startDate, endDate-151)
		status := "O"
		if orderDate+100 < currentDate {
			status = "F"
		} else if r.intn(0, 1) == 0 && orderDate < currentDate {
			status = "P"
		}
		comment := r.comment(6)
		// Q13's pattern: some comments contain "special ... requests".
		if r.intn(0, 9) == 0 {
			comment = "special packages wake requests " + comment
		}
		rows[i] = types.Row{
			types.NewInt(key),
			types.NewInt(cust),
			types.NewString(status),
			types.NewFloat(r.decimal(850, 550000)),
			types.NewDate(orderDate),
			types.NewString(r.pick(priorities)),
			types.NewString(fmt.Sprintf("Clerk#%09d", r.intn(1, 1000))),
			types.NewInt(0),
			types.NewString(comment),
		}
	}
	return rows
}

// orderDateOf re-derives an order's date by replaying the orders() draw
// sequence — LINEITEM dates must correlate with their order's date.
func (g *Gen) orderDateOf(orderkey, customers int64) int64 {
	r := g.rowRNG("orders", orderkey-1)
	_ = r.intn(1, customers) // the customer draw precedes the date draw
	return r.intn(startDate, endDate-151)
}

// LinesPerOrder returns the deterministic line count of an order (1..7).
func (g *Gen) LinesPerOrder(orderkey int64) int64 {
	r := g.rowRNG("ordercount", orderkey)
	return r.intn(1, 7)
}

func (g *Gen) lineitems() []types.Row {
	counts := g.Counts()
	orders, parts := counts["orders"], counts["part"]
	suppliers, customers := counts["supplier"], counts["customer"]
	var rows []types.Row
	for o := int64(1); o <= orders; o++ {
		orderDate := g.orderDateOf(o, customers)
		lines := g.LinesPerOrder(o)
		for ln := int64(1); ln <= lines; ln++ {
			r := g.rowRNG("lineitem", o*8+ln)
			partkey := r.intn(1, parts)
			supp := suppForPart(partkey, r.intn(0, 3), suppliers)
			qty := r.intn(1, 50)
			extended := float64(qty) * retailPrice(partkey)
			shipDate := orderDate + r.intn(1, 121)
			commitDate := orderDate + r.intn(30, 90)
			receiptDate := shipDate + r.intn(1, 30)
			returnflag := "N"
			if receiptDate <= currentDate {
				if r.intn(0, 1) == 0 {
					returnflag = "R"
				} else {
					returnflag = "A"
				}
			}
			linestatus := "O"
			if shipDate <= currentDate {
				linestatus = "F"
			}
			rows = append(rows, types.Row{
				types.NewInt(o),
				types.NewInt(partkey),
				types.NewInt(supp),
				types.NewInt(ln),
				types.NewFloat(float64(qty)),
				types.NewFloat(extended),
				types.NewFloat(float64(r.intn(0, 10)) / 100),
				types.NewFloat(float64(r.intn(0, 8)) / 100),
				types.NewString(returnflag),
				types.NewString(linestatus),
				types.NewDate(shipDate),
				types.NewDate(commitDate),
				types.NewDate(receiptDate),
				types.NewString(r.pick(shipInstructs)),
				types.NewString(r.pick(shipModes)),
				types.NewString(r.comment(4)),
			})
		}
	}
	return rows
}
