package mem

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestSizeRounding(t *testing.T) {
	m := New(1)
	if m.Size() != 4096 {
		t.Fatalf("Size() = %d, want 4096", m.Size())
	}
	m = New(4096)
	if m.Size() != 4096 {
		t.Fatalf("Size() = %d, want 4096", m.Size())
	}
}

func TestByteRoundTrip(t *testing.T) {
	m := New(1 << 20)
	f := func(paRaw uint32, v uint8) bool {
		pa := paRaw % m.Size()
		if err := m.StoreByte(pa, v); err != nil {
			return false
		}
		got, err := m.LoadByte(pa)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWordRoundTripIncludingPageStraddle(t *testing.T) {
	m := New(1 << 20)
	f := func(paRaw, v uint32) bool {
		pa := paRaw % (m.Size() - 4)
		if err := m.StoreWord(pa, v); err != nil {
			return false
		}
		got, err := m.LoadWord(pa)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Explicit page straddle.
	if err := m.StoreWord(4094, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	got, err := m.LoadWord(4094)
	if err != nil || got != 0xdeadbeef {
		t.Fatalf("straddling word = %#x, %v", got, err)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := New(4096)
	if err := m.StoreWord(0, 0x11223344); err != nil {
		t.Fatal(err)
	}
	want := []byte{0x44, 0x33, 0x22, 0x11}
	for i, w := range want {
		got, _ := m.LoadByte(uint32(i))
		if got != w {
			t.Errorf("byte %d = %#x, want %#x", i, got, w)
		}
	}
	h, _ := m.LoadHalf(0)
	if h != 0x3344 {
		t.Errorf("LoadHalf(0) = %#x, want 0x3344", h)
	}
	h, _ = m.LoadHalf(2)
	if h != 0x1122 {
		t.Errorf("LoadHalf(2) = %#x, want 0x1122", h)
	}
}

func TestUntouchedReadsZero(t *testing.T) {
	m := New(1 << 16)
	w, err := m.LoadWord(0x8000)
	if err != nil || w != 0 {
		t.Fatalf("untouched word = %#x, %v", w, err)
	}
	if m.TouchedPages() != 0 {
		t.Fatalf("TouchedPages = %d after pure reads", m.TouchedPages())
	}
}

func TestBusErrors(t *testing.T) {
	m := New(1 << 16)
	if _, err := m.LoadByte(1 << 16); !errors.Is(err, ErrBusError) {
		t.Errorf("LoadByte OOB err = %v", err)
	}
	if err := m.StoreByte(1<<16, 1); !errors.Is(err, ErrBusError) {
		t.Errorf("StoreByte OOB err = %v", err)
	}
	if _, err := m.LoadWord(1<<16 - 2); !errors.Is(err, ErrBusError) {
		t.Errorf("LoadWord straddling end err = %v", err)
	}
	if err := m.StoreWord(1<<16-2, 0); !errors.Is(err, ErrBusError) {
		t.Errorf("StoreWord straddling end err = %v", err)
	}
}

func TestBulkWriteRead(t *testing.T) {
	m := New(1 << 16)
	blob := make([]byte, 10000)
	for i := range blob {
		blob[i] = byte(i * 7)
	}
	if err := m.Write(100, blob); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(100, len(blob))
	if err != nil {
		t.Fatal(err)
	}
	for i := range blob {
		if got[i] != blob[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], blob[i])
		}
	}
	if err := m.Write(1<<16-5, blob[:10]); !errors.Is(err, ErrBusError) {
		t.Errorf("Write past end err = %v", err)
	}
}

func TestPageRefAndGen(t *testing.T) {
	m := New(4 * pageBytes)
	if m.PageRef(0x1000) != nil {
		t.Fatal("PageRef on untouched page should be nil (reads-as-zero stays slow-path)")
	}
	if m.PageRef(4*pageBytes) != nil {
		t.Fatal("PageRef beyond physical memory should be nil")
	}
	if err := m.StoreWord(0x1004, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	pg := m.PageRef(0x1000)
	if pg == nil {
		t.Fatal("PageRef nil after store touched the page")
	}
	if got := pg.Word(0x004); got != 0xdeadbeef {
		t.Fatalf("page word = %#x", got)
	}

	// Every mutation path must advance the generation: it is the
	// predecode cache's only invalidation signal.
	g := pg.Gen()
	pg.SetByte(0x10, 1)
	pg.SetHalf(0x12, 2)
	pg.SetWord(0x14, 3)
	if pg.Gen() != g+3 {
		t.Fatalf("gen %d after 3 sets, want %d", pg.Gen(), g+3)
	}
	g = pg.Gen()
	if err := m.Write(0x1000, make([]byte, 2*pageBytes)); err != nil {
		t.Fatal(err)
	}
	if pg.Gen() <= g {
		t.Fatal("bulk Write did not advance gen of first page")
	}
}

func TestPageWord64(t *testing.T) {
	m := New(pageBytes)
	if err := m.StoreWord(0x20, 0x11223344); err != nil {
		t.Fatal(err)
	}
	if err := m.StoreWord(0x24, 0x55667788); err != nil {
		t.Fatal(err)
	}
	pg := m.PageRef(0)
	if got := pg.Word64(0x20); got != 0x55667788_11223344 {
		t.Fatalf("Word64 = %#x", got)
	}
	if got := pg.Word64(0x28); got != 0 {
		t.Fatalf("Word64 of zero words = %#x", got)
	}
}
