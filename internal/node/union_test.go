package node

import (
	"reflect"
	"strings"
	"testing"

	"qtrade/internal/trading"
)

func TestExecuteUnionAll(t *testing.T) {
	n := fullNode(t)
	resp, err := n.Execute(trading.ExecReq{SQL: `
		SELECT c.custname FROM customer c WHERE c.office = 'Corfu'
		UNION ALL
		SELECT c.custname FROM customer c WHERE c.office = 'Corfu'`})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 4 {
		t.Fatalf("union all rows: %d", len(resp.Rows))
	}
}

func TestExecuteUnionDistinct(t *testing.T) {
	n := fullNode(t)
	resp, err := n.Execute(trading.ExecReq{SQL: `
		SELECT c.office FROM customer c WHERE c.custid < 3
		UNION
		SELECT c.office FROM customer c`})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 2 {
		t.Fatalf("union distinct rows: %v", resp.Rows)
	}
}

// Mismatched branch widths fail at plan time, so they error on both
// delivery paths even when every branch filters to zero rows.
func TestExecuteUnionWidthMismatch(t *testing.T) {
	n := fullNode(t)
	for _, q := range []string{`
		SELECT c.office FROM customer c
		UNION ALL
		SELECT c.office, c.custid FROM customer c`, `
		SELECT c.office FROM customer c WHERE c.office = 'Paris'
		UNION ALL
		SELECT c.office, c.custid FROM customer c WHERE c.office = 'Paris'`,
	} {
		for _, stream := range []bool{false, true} {
			_, err := n.Execute(trading.ExecReq{SQL: q, Stream: stream})
			if err == nil || !strings.Contains(err.Error(), "union branches have different widths") {
				t.Fatalf("stream=%v: mismatched union widths must error, got %v\n%s", stream, err, q)
			}
		}
	}
	if n.OpenCursors() != 0 {
		t.Fatalf("failed unions left %d cursors parked", n.OpenCursors())
	}
}

// A one-shot Execute drains the whole cursor pipeline into one reply even
// when the pipeline yields many short batches: the answer is complete,
// carries no continuation, and parks nothing.
func TestExecuteOneShotDrainsMultiBatchCursor(t *testing.T) {
	n := fullNode(t)
	for _, c := range []struct {
		sql  string
		rows int
	}{
		{"SELECT c.custid, i.invid FROM customer c, invoiceline i WHERE c.custid = i.custid", 5},
		{"SELECT c.custname FROM customer c UNION ALL SELECT c.custname FROM customer c", 8},
	} {
		open, err := n.Execute(trading.ExecReq{SQL: c.sql, Stream: true, BatchRows: 1})
		if err != nil || !open.More {
			t.Fatalf("%s: want a multi-batch cursor, got %+v %v", c.sql, open, err)
		}
		if _, err := n.Execute(trading.ExecReq{Cursor: open.Cursor, CloseCursor: true}); err != nil {
			t.Fatal(err)
		}
		want, err := n.Execute(trading.ExecReq{SQL: c.sql})
		if err != nil {
			t.Fatal(err)
		}
		got, err := n.Execute(trading.ExecReq{SQL: c.sql, BatchRows: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != c.rows || got.More || got.Cursor != "" {
			t.Fatalf("%s: one-shot reply rows=%d more=%v cursor=%q, want %d rows and no continuation",
				c.sql, len(got.Rows), got.More, got.Cursor, c.rows)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Cols, want.Cols) {
			t.Fatalf("%s: 1-row batches drained to %v, default batches to %v", c.sql, got.Rows, want.Rows)
		}
		if n.OpenCursors() != 0 {
			t.Fatalf("%s: one-shot execution parked %d cursors", c.sql, n.OpenCursors())
		}
	}
}

func TestStandingStateEviction(t *testing.T) {
	n := fullNode(t)
	q := "SELECT c.custname FROM customer c WHERE c.office = 'Corfu'"
	for i := 0; i < maxStandingRFBs+10; i++ {
		rfb := trading.RFB{RFBID: itoa(i), BuyerID: "b",
			Queries: []trading.QueryRequest{{QID: "q0", SQL: q}}}
		if _, err := n.RequestBids(rfb); err != nil {
			t.Fatal(err)
		}
	}
	n.mu.Lock()
	size := len(n.standing)
	n.mu.Unlock()
	if size > maxStandingRFBs {
		t.Fatalf("standing state grew unbounded: %d", size)
	}
	// The oldest RFB is gone; improving it is a silent no-op.
	offers, err := bidOffers(n.ImproveBids(trading.ImproveReq{RFBID: "0", BestPrice: map[string]float64{"q0": 0.001}}))
	if err != nil || len(offers) != 0 {
		t.Fatalf("evicted rfb must be forgotten: %v %v", offers, err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
