package main

import (
	"bytes"
	"compress/gzip"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// pb is a minimal protocol buffer encoder for building profile fixtures.
type pb struct{ b []byte }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *pb) uint(num int, v uint64) {
	p.varint(uint64(num) << 3)
	p.varint(v)
}

func (p *pb) bytes(num int, b []byte) {
	p.varint(uint64(num)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) msg(num int, build func(q *pb)) {
	var q pb
	build(&q)
	p.bytes(num, q.b)
}

func (p *pb) packed(num int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.varint(v)
	}
	p.bytes(num, q.b)
}

// fixtureProfile is a two-sample CPU profile in runtime/pprof's layout:
// the cpu value second, one location with an inlined call, one sample with
// packed and one with unpacked repeated fields, and fields the decoder
// skips (a mapping, the period, a fixed64).
func fixtureProfile() []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds", "main.leaf", "main.inlined", "main.caller", "runtime.main"}
	var p pb
	p.msg(1, func(q *pb) { q.uint(1, 1); q.uint(2, 2) })
	p.msg(1, func(q *pb) { q.uint(1, 3); q.uint(2, 4) })
	p.msg(2, func(q *pb) { q.packed(1, 10, 11, 12); q.packed(2, 1, 10_000_000) })
	p.msg(2, func(q *pb) { q.uint(1, 11); q.uint(1, 12); q.uint(2, 2); q.uint(2, 20_000_000) })
	p.msg(3, func(q *pb) { q.uint(1, 1); q.uint(2, 0x400000) })
	p.msg(4, func(q *pb) { q.uint(1, 10); q.msg(4, func(l *pb) { l.uint(1, 1); l.uint(2, 7) }) })
	p.msg(4, func(q *pb) {
		q.uint(1, 11)
		q.uint(3, 0x401000)
		q.msg(4, func(l *pb) { l.uint(1, 2) })
		q.msg(4, func(l *pb) { l.uint(1, 3) })
	})
	p.msg(4, func(q *pb) { q.uint(1, 12); q.msg(4, func(l *pb) { l.uint(1, 4) }) })
	for id := uint64(1); id <= 4; id++ {
		p.msg(5, func(q *pb) { q.uint(1, id); q.uint(2, id+4) })
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	p.uint(12, 10_000_000)
	p.varint(13<<3 | 1)
	p.b = append(p.b, 1, 2, 3, 4, 5, 6, 7, 8)
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(p.b)
	zw.Close()
	return z.Bytes()
}

func TestParseCPUProfileFixture(t *testing.T) {
	got, err := parseCPUProfile(fixtureProfile())
	if err != nil {
		t.Fatal(err)
	}
	want := []cpuSample{
		{stack: []string{"main.leaf", "main.inlined", "main.caller", "runtime.main"}, nanos: 10_000_000},
		{stack: []string{"main.inlined", "main.caller", "runtime.main"}, nanos: 20_000_000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("samples\n got %+v\nwant %+v", got, want)
	}
}

func TestParseCPUProfileRejectsTruncated(t *testing.T) {
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write([]byte{2<<3 | 2, 50, 1, 2}) // a sample claiming 50 bytes
	zw.Close()
	if _, err := parseCPUProfile(z.Bytes()); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

// TestParseCPUProfileLive decodes a real runtime/pprof profile of a busy
// loop and finds the loop in it.
func TestParseCPUProfileLive(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	spinForProfile(500 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var in, total int64
	for _, s := range samples {
		total += s.nanos
		for _, f := range s.stack {
			if strings.HasSuffix(f, ".spinForProfile") {
				in += s.nanos
				break
			}
		}
	}
	if total == 0 || in < total/2 {
		t.Fatalf("spinForProfile holds %d of %d sampled ns across %d samples", in, total, len(samples))
	}
}
