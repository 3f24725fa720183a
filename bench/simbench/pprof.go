package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// cpuSample is one sample of a CPU profile: its call stack, leaf first
// with inlined calls expanded, and the CPU time it stands for.
type cpuSample struct {
	stack []string
	nanos int64
}

// parseCPUProfile decodes the samples of a runtime/pprof CPU profile: the
// gzip-compressed protocol buffer of github.com/google/pprof's
// profile.proto. Only the fields the layer attribution needs are read:
// sample_type (1), sample (2), location (4), function (5) and
// string_table (6).
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	var (
		sampleTypes, samples, locations, functions [][]byte
		strs                                       []string
	)
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1:
			sampleTypes = append(sampleTypes, b)
		case 2:
			samples = append(samples, b)
		case 4:
			locations = append(locations, b)
		case 5:
			functions = append(functions, b)
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}

	// The CPU time is the value whose sample type is "cpu"; runtime/pprof
	// puts it after the sample count.
	valueIdx := len(sampleTypes) - 1
	for i, b := range sampleTypes {
		err := eachField(b, func(num int, v uint64, _ []byte) error {
			if num == 1 && str(v) == "cpu" {
				valueIdx = i
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("cpu profile sample type: %w", err)
		}
	}

	funcName := map[uint64]string{}
	for _, b := range functions {
		var id, name uint64
		err := eachField(b, func(num int, v uint64, _ []byte) error {
			switch num {
			case 1:
				id = v
			case 2:
				name = v
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("cpu profile function: %w", err)
		}
		funcName[id] = str(name)
	}

	// A location's lines list the inlined calls innermost first; the last
	// is the function they were inlined into.
	frames := map[uint64][]string{}
	for _, b := range locations {
		var id uint64
		var names []string
		err := eachField(b, func(num int, v uint64, line []byte) error {
			switch num {
			case 1:
				id = v
			case 4:
				return eachField(line, func(num int, v uint64, _ []byte) error {
					if num == 1 {
						names = append(names, funcName[v])
					}
					return nil
				})
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("cpu profile location: %w", err)
		}
		frames[id] = names
	}

	out := make([]cpuSample, 0, len(samples))
	for _, b := range samples {
		var locs []uint64
		var values []int64
		err := eachField(b, func(num int, v uint64, packed []byte) error {
			switch num {
			case 1:
				if packed == nil {
					locs = append(locs, v)
					return nil
				}
				return eachVarint(packed, func(v uint64) { locs = append(locs, v) })
			case 2:
				if packed == nil {
					values = append(values, int64(v))
					return nil
				}
				return eachVarint(packed, func(v uint64) { values = append(values, int64(v)) })
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("cpu profile sample: %w", err)
		}
		if valueIdx < 0 || valueIdx >= len(values) {
			return nil, errors.New("cpu profile sample: no cpu value")
		}
		s := cpuSample{nanos: values[valueIdx]}
		for _, id := range locs {
			s.stack = append(s.stack, frames[id]...)
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField calls fn for every field of a protocol buffer message: v
// carries a varint field's value, b a length-delimited field's bytes (nil
// for a varint). Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := varint(msg)
		if n == 0 {
			return errors.New("truncated field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(msg)
			if n == 0 {
				return errors.New("truncated varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(msg) < size {
				return errors.New("truncated fixed-width field")
			}
			msg = msg[size:]
		case 2:
			l, n := varint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// eachVarint decodes a packed run of varints.
func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := varint(b)
		if n == 0 {
			return errors.New("truncated packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

// varint decodes one base-128 varint, returning its length (0 when b is
// truncated or the varint overflows 64 bits).
func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
