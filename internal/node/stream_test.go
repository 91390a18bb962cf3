package node

import (
	"reflect"
	"strings"
	"testing"

	"qtrade/internal/catalog"
	"qtrade/internal/ledger"
	"qtrade/internal/obs"
	"qtrade/internal/storage"
	"qtrade/internal/trading"
	"qtrade/internal/value"
)

// streamAll opens a streamed execution at the given batch size and pulls
// every continuation, returning the reassembled answer.
func streamAll(t *testing.T, n *Node, sql string, batch int) trading.ExecResp {
	t.Helper()
	resp, err := n.Execute(trading.ExecReq{SQL: sql, Stream: true, BatchRows: batch})
	if err != nil {
		t.Fatalf("stream open %q: %v", sql, err)
	}
	all := resp
	seq := int64(0)
	for all.More {
		seq++
		next, err := n.Execute(trading.ExecReq{Cursor: all.Cursor, Seq: seq})
		if err != nil {
			t.Fatalf("continuation %d of %q: %v", seq, sql, err)
		}
		resp.Rows = append(resp.Rows, next.Rows...)
		all = next
	}
	resp.Cursor, resp.More = "", false
	return resp
}

// TestStreamingDifferentialSQLLogic reassembles every query in the logic
// battery from size-3 batches and demands rows identical — content AND
// order — to the one-shot materializing Execute.
func TestStreamingDifferentialSQLLogic(t *testing.T) {
	n := fullNode(t)
	queries := []string{
		"SELECT c.custname FROM customer c WHERE c.office = 'Corfu'",
		"SELECT c.custname FROM customer c WHERE c.custid > 2 AND c.custid <= 5",
		"SELECT c.custname FROM customer c WHERE c.custid IN (1, 5)",
		"SELECT c.custid * 10 + 1 FROM customer c WHERE c.custid = 3",
		"SELECT c.custname, i.charge FROM customer c, invoiceline i WHERE c.custid = i.custid AND i.charge > 9",
		"SELECT a.custname, b.custname FROM customer a, customer b WHERE a.office = b.office AND a.custid < b.custid",
		"SELECT SUM(i.charge) FROM invoiceline i",
		"SELECT MIN(i.charge), MAX(i.charge), AVG(i.charge) FROM invoiceline i WHERE i.custid = 1",
		"SELECT c.office, SUM(i.charge) FROM customer c, invoiceline i WHERE c.custid = i.custid GROUP BY c.office",
		"SELECT c.office, COUNT(*) FROM customer c GROUP BY c.office HAVING COUNT(*) > 1",
		"SELECT DISTINCT c.office FROM customer c",
		"SELECT c.custname FROM customer c ORDER BY c.custid DESC LIMIT 2",
		"SELECT c.custname FROM customer c ORDER BY c.custname LIMIT 1",
		"SELECT * FROM customer c WHERE c.custid = 1",
		"SELECT c.custname FROM customer c WHERE c.office = 'Paris'",
		"SELECT c.custid, i.invid FROM customer c, invoiceline i",
		"SELECT COUNT(*) FROM customer c WHERE c.custname IS NOT NULL",
	}
	for _, q := range queries {
		want, err := n.Execute(trading.ExecReq{SQL: q})
		if err != nil {
			t.Fatalf("one-shot %q: %v", q, err)
		}
		got := streamAll(t, n, q, 3)
		if !reflect.DeepEqual(got.Rows, want.Rows) &&
			!(len(got.Rows) == 0 && len(want.Rows) == 0) {
			t.Errorf("%s\n  streamed %v\n  one-shot %v", q, got.Rows, want.Rows)
		}
		if !reflect.DeepEqual(got.Cols, want.Cols) {
			t.Errorf("%s\n  streamed cols %v != %v", q, got.Cols, want.Cols)
		}
	}
	if n.OpenCursors() != 0 {
		t.Fatalf("drained streams must leave no parked cursors, have %d", n.OpenCursors())
	}
}

// Sub-batch answers complete in the opening exchange: no cursor, no More,
// no extra round trips — the streamed wire conversation for small results
// is the one-shot conversation.
func TestStreamSmallResultSingleExchange(t *testing.T) {
	n := fullNode(t)
	resp, err := n.Execute(trading.ExecReq{
		SQL: "SELECT i.invid FROM invoiceline i", Stream: true, BatchRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	if resp.More || resp.Cursor != "" {
		t.Fatalf("5-row answer in 64-row batches must finish in one exchange: %+v", resp)
	}
	if n.OpenCursors() != 0 {
		t.Fatal("nothing may be parked for a single-exchange answer")
	}
}

func TestStreamContinuationProtocol(t *testing.T) {
	n := fullNode(t)
	q := "SELECT c.custid, i.invid FROM customer c, invoiceline i" // 20 rows
	open, err := n.Execute(trading.ExecReq{SQL: q, Stream: true, BatchRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !open.More || open.Cursor == "" || len(open.Rows) != 4 {
		t.Fatalf("open: %+v", open)
	}
	b1, err := n.Execute(trading.ExecReq{Cursor: open.Cursor, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A retried delivery of the same seq returns the identical batch and
	// does not advance the cursor.
	again, err := n.Execute(trading.ExecReq{Cursor: open.Cursor, Seq: 1})
	if err != nil {
		t.Fatalf("idempotent retry: %v", err)
	}
	if !reflect.DeepEqual(b1.Rows, again.Rows) || b1.More != again.More {
		t.Fatalf("retried seq must re-deliver: %v vs %v", b1.Rows, again.Rows)
	}
	b2, err := n.Execute(trading.ExecReq{Cursor: open.Cursor, Seq: 2})
	if err != nil || len(b2.Rows) != 4 {
		t.Fatalf("seq 2 after retry: %v %v", b2.Rows, err)
	}
	// Skipping ahead is a protocol violation: the cursor dies, and the
	// next touch reports it gone.
	if _, err := n.Execute(trading.ExecReq{Cursor: open.Cursor, Seq: 9}); err == nil ||
		!strings.Contains(err.Error(), "out of sync") {
		t.Fatalf("out-of-sync must kill the cursor, got %v", err)
	}
	if _, err := n.Execute(trading.ExecReq{Cursor: open.Cursor, Seq: 3}); err == nil {
		t.Fatal("killed cursor must refuse further pulls")
	}
	if n.OpenCursors() != 0 {
		t.Fatalf("killed cursor must be unregistered, have %d", n.OpenCursors())
	}
	// Unknown cursors fail loudly.
	if _, err := n.Execute(trading.ExecReq{Cursor: "ghost.c9", Seq: 1}); err == nil ||
		!strings.Contains(err.Error(), "unknown cursor") {
		t.Fatalf("unknown cursor: %v", err)
	}
}

// CloseCursor abandons a parked execution early and reclaims it
// immediately — the buyer-side LIMIT path depends on this not leaking.
func TestStreamEarlyClose(t *testing.T) {
	n := fullNode(t)
	open, err := n.Execute(trading.ExecReq{
		SQL:    "SELECT c.custid, i.invid FROM customer c, invoiceline i",
		Stream: true, BatchRows: 2})
	if err != nil || !open.More {
		t.Fatalf("open: %+v %v", open, err)
	}
	if n.OpenCursors() != 1 {
		t.Fatalf("parked cursors = %d, want 1", n.OpenCursors())
	}
	if _, err := n.Execute(trading.ExecReq{Cursor: open.Cursor, CloseCursor: true}); err != nil {
		t.Fatalf("close: %v", err)
	}
	if n.OpenCursors() != 0 {
		t.Fatalf("closed cursor must be reclaimed, have %d", n.OpenCursors())
	}
	// Closing twice is an error (the cursor is gone), not a hang.
	if _, err := n.Execute(trading.ExecReq{Cursor: open.Cursor, CloseCursor: true}); err == nil {
		t.Fatal("double close must report the cursor gone")
	}
}

// The registry is bounded: abandoning more streams than maxOpenCursors
// evicts the oldest, whose next continuation fails into recovery.
func TestStreamCursorEviction(t *testing.T) {
	n := fullNode(t)
	q := "SELECT c.custid, i.invid FROM customer c, invoiceline i"
	var first trading.ExecResp
	for i := 0; i < maxOpenCursors+1; i++ {
		resp, err := n.Execute(trading.ExecReq{SQL: q, Stream: true, BatchRows: 2})
		if err != nil || !resp.More {
			t.Fatalf("open %d: %+v %v", i, resp, err)
		}
		if i == 0 {
			first = resp
		}
	}
	if got := n.OpenCursors(); got != maxOpenCursors {
		t.Fatalf("registry must stay bounded: %d > %d", got, maxOpenCursors)
	}
	if _, err := n.Execute(trading.ExecReq{Cursor: first.Cursor, Seq: 1}); err == nil {
		t.Fatal("evicted cursor must refuse continuation")
	}
}

// A node that has Left the federation refuses continuations like any other
// execution, with a transient error that routes the buyer into recovery.
func TestStreamLeftNodeRefusesContinuation(t *testing.T) {
	n := fullNode(t)
	open, err := n.Execute(trading.ExecReq{
		SQL:    "SELECT c.custid, i.invid FROM customer c, invoiceline i",
		Stream: true, BatchRows: 2})
	if err != nil || !open.More {
		t.Fatalf("open: %+v %v", open, err)
	}
	n.Leave("maintenance")
	if _, err := n.Execute(trading.ExecReq{Cursor: open.Cursor, Seq: 1}); err == nil {
		t.Fatal("left node must refuse continuations")
	}
}

// Streamed delivery of a purchased (offer-bound) answer records exactly one
// Served ledger event carrying the cumulative row count.
func TestStreamServedLedgerOnce(t *testing.T) {
	n := fullNode(t)
	led := ledger.New(4)
	n.SetLedger(led)
	q := "SELECT c.custid, i.invid FROM customer c, invoiceline i"
	open, err := n.Execute(trading.ExecReq{SQL: q, OfferID: "rfb7.oracle.1", Stream: true, BatchRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	rows := len(open.Rows)
	seq := int64(0)
	for open.More {
		seq++
		open, err = n.Execute(trading.ExecReq{Cursor: open.Cursor, Seq: seq, OfferID: "rfb7.oracle.1"})
		if err != nil {
			t.Fatal(err)
		}
		rows += len(open.Rows)
	}
	if rows != 20 {
		t.Fatalf("reassembled %d rows, want 20", rows)
	}
	var served []ledger.Event
	for _, neg := range led.Negotiations(0) {
		for _, e := range neg.Events {
			if e.Kind == ledger.KindServed {
				served = append(served, e)
			}
		}
	}
	if len(served) != 1 {
		t.Fatalf("served events = %d, want 1: %+v", len(served), served)
	}
	if served[0].Rows != 20 {
		t.Fatalf("served rows = %d, want cumulative 20", served[0].Rows)
	}
	if served[0].Bytes <= 0 || served[0].WallMS < 0 {
		t.Fatalf("served actuals: %+v", served[0])
	}
}

// A UNION [ALL] chain runs as one union cursor over its branch plans (under
// a distinct cursor for plain UNION). Reassembled from 1-row batches, the
// answer must equal the one-shot union, and abandoning it mid-transfer must
// reclaim the parked cursor like any other.
func TestStreamUnionChunked(t *testing.T) {
	n := fullNode(t)
	for _, q := range []string{`
		SELECT c.custname FROM customer c WHERE c.office = 'Corfu'
		UNION ALL
		SELECT c.custname FROM customer c WHERE c.office = 'Corfu'`, `
		SELECT c.office FROM customer c WHERE c.custid < 3
		UNION
		SELECT c.office FROM customer c`,
	} {
		want, err := n.Execute(trading.ExecReq{SQL: q})
		if err != nil {
			t.Fatal(err)
		}
		got := streamAll(t, n, q, 1)
		if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Cols, want.Cols) {
			t.Fatalf("streamed union differs:\n  streamed %v\n  one-shot %v\n%s", got.Rows, want.Rows, q)
		}
		open, err := n.Execute(trading.ExecReq{SQL: q, Stream: true, BatchRows: 1})
		if err != nil || !open.More {
			t.Fatalf("open: %+v %v", open, err)
		}
		if _, err := n.Execute(trading.ExecReq{Cursor: open.Cursor, CloseCursor: true}); err != nil {
			t.Fatal(err)
		}
		if n.OpenCursors() != 0 {
			t.Fatalf("abandoned union cursor still parked: %d", n.OpenCursors())
		}
	}
}

// View-backed offers stream through the same chunked protocol: the view
// plan feeds the cursor pipeline and the reassembled rollup matches the
// one-shot execution of the same offer SQL.
func TestStreamViewOfferChunked(t *testing.T) {
	n := myconosNode(t, nil)
	if err := n.Store().AddView(&storage.MaterializedView{
		Name: "officetotals",
		SQL: `SELECT c.office, c.custid, SUM(i.charge) AS total FROM customer c, invoiceline i
		      WHERE c.custid = i.custid GROUP BY c.office, c.custid`,
		Columns: []catalog.ColumnDef{
			{Name: "office", Kind: value.Str},
			{Name: "custid", Kind: value.Int},
			{Name: "total", Kind: value.Float},
		},
		Rows: []value.Row{
			{value.NewStr("Myconos"), value.NewInt(3), value.NewFloat(20)},
			{value.NewStr("Myconos"), value.NewInt(5), value.NewFloat(2)},
		},
	}); err != nil {
		t.Fatal(err)
	}
	q := `SELECT c.office, SUM(i.charge) AS total FROM customer c, invoiceline i
	      WHERE c.custid = i.custid GROUP BY c.office`
	rfb := trading.RFB{RFBID: "r2", BuyerID: "athens",
		Queries: []trading.QueryRequest{{QID: "q0", SQL: q}}}
	offers, err := bidOffers(n.RequestBids(rfb))
	if err != nil {
		t.Fatal(err)
	}
	var viewOffer *trading.Offer
	for i := range offers {
		if offers[i].FromView {
			viewOffer = &offers[i]
		}
	}
	if viewOffer == nil {
		t.Fatal("view offer expected")
	}
	want, err := n.Execute(trading.ExecReq{SQL: viewOffer.SQL})
	if err != nil {
		t.Fatal(err)
	}
	got := streamAll(t, n, viewOffer.SQL, 1)
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("streamed view offer differs:\n  streamed %v\n  one-shot %v", got.Rows, want.Rows)
	}
	if n.OpenCursors() != 0 {
		t.Fatalf("view stream left %d cursors parked", n.OpenCursors())
	}
}

// A sampled continuation ships a per-batch span payload back for grafting
// into the buyer's trace; an unsampled one must ship nothing.
func TestStreamContinuationTraced(t *testing.T) {
	n := fullNode(t)
	open, err := n.Execute(trading.ExecReq{
		SQL:    "SELECT c.custid, i.invid FROM customer c, invoiceline i",
		Stream: true, BatchRows: 4})
	if err != nil || !open.More {
		t.Fatalf("open: %+v %v", open, err)
	}
	sampled, err := n.Execute(trading.ExecReq{Cursor: open.Cursor, Seq: 1,
		Trace: obs.TraceContext{TraceID: "t1", Parent: 7, Sampled: true}})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Trace == nil {
		t.Fatal("sampled continuation must carry a span payload")
	}
	plain, err := n.Execute(trading.ExecReq{Cursor: open.Cursor, Seq: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatal("unsampled continuation must not ship trace data")
	}
	if _, err := n.Execute(trading.ExecReq{Cursor: open.Cursor, CloseCursor: true}); err != nil {
		t.Fatal(err)
	}
}
