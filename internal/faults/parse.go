package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Parse builds a Plan from a fault schedule. One directive per line;
// blank lines and #-comments are skipped. The grammar:
//
//	drop    link=S->D nth=N [attempts=K]   drop the Nth message on the link K times
//	drop    all  prob=P [attempts=K]       drop each message with probability P
//	delay   link=S->D nth=N by=DUR         delay the Nth message by DUR
//	delay   all  prob=P by=DUR             delay random messages by DUR
//	dup     link=S->D nth=N                deliver a spurious duplicate of the Nth message
//	dup     all  prob=P                    duplicate random messages
//	degrade link=S->D factor=F             divide the link bandwidth by F (whole run)
//	degrade all  factor=F                  degrade every link
//	slow    rank=R factor=F                multiply rank R's compute time by F
//	crash   rank=R iter=N                  rank R dies at solver iteration N (one-shot)
//	ecc     rank=R launch=N                rank R's GPU takes an uncorrectable
//	                                       double-bit ECC error at kernel launch N
//
// Durations accept ns/us/µs/ms/s suffixes (bare numbers are seconds).
// nth is 1-based per link; launch and iter are 0-based, matching the
// solver's iteration counter and the device's launch counter.
func Parse(seed uint64, script string) (*Plan, error) {
	p := &Plan{
		Seed:  seed,
		crash: map[int]int{},
		ecc:   map[int]int{},
		slow:  map[int]float64{},
	}
	for ln, raw := range strings.Split(script, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := p.parseLine(line); err != nil {
			return nil, fmt.Errorf("faults: line %d: %w", ln+1, err)
		}
	}
	return p, nil
}

func (p *Plan) parseLine(line string) error {
	fields := strings.Fields(line)
	kind := fields[0]
	kv := map[string]string{}
	all := false
	for _, f := range fields[1:] {
		if f == "all" {
			all = true
			continue
		}
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("%q: want key=value", f)
		}
		kv[k] = v
	}
	getInt := func(key string) (int, bool, error) {
		s, ok := kv[key]
		if !ok {
			return 0, false, nil
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			return 0, false, fmt.Errorf("%s=%q: %w", key, s, err)
		}
		return n, true, nil
	}
	getFloat := func(key string) (float64, bool, error) {
		s, ok := kv[key]
		if !ok {
			return 0, false, nil
		}
		f, err := parseFinite(s)
		if err != nil {
			return 0, false, fmt.Errorf("%s=%q: %w", key, s, err)
		}
		return f, true, nil
	}

	switch kind {
	case "drop", "delay", "dup", "degrade":
		r := rule{kind: kind, all: all, text: line}
		if link, ok := kv["link"]; ok {
			if all {
				return fmt.Errorf("both 'all' and link=%s", link)
			}
			var err error
			if r.src, r.dst, err = parseLink(link); err != nil {
				return err
			}
		} else if !all {
			return fmt.Errorf("%s needs link=S->D or all", kind)
		}
		if n, ok, err := getInt("nth"); err != nil {
			return err
		} else if ok {
			if n < 1 {
				return fmt.Errorf("nth=%d: 1-based", n)
			}
			r.nth = int64(n)
		}
		if f, ok, err := getFloat("prob"); err != nil {
			return err
		} else if ok {
			if f <= 0 || f > 1 {
				return fmt.Errorf("prob=%g outside (0,1]", f)
			}
			r.prob = f
		}
		if r.nth == 0 && r.prob == 0 && (kind == "drop" || kind == "delay" || kind == "dup") {
			return fmt.Errorf("%s needs nth=N or prob=P", kind)
		}
		switch kind {
		case "drop":
			r.attempts = 1
			if n, ok, err := getInt("attempts"); err != nil {
				return err
			} else if ok {
				if n < 1 {
					return fmt.Errorf("attempts=%d: must be ≥ 1", n)
				}
				r.attempts = n
			}
		case "delay":
			d, ok := kv["by"]
			if !ok {
				return fmt.Errorf("delay needs by=DUR")
			}
			var err error
			if r.delay, err = parseDuration(d); err != nil {
				return err
			}
		case "degrade":
			f, ok, err := getFloat("factor")
			if err != nil {
				return err
			}
			if !ok || f <= 1 {
				return fmt.Errorf("degrade needs factor>1, got %g", f)
			}
			r.factor = f
		}
		p.rules = append(p.rules, r)
		return nil

	case "slow", "crash", "ecc":
		rank, ok, err := getInt("rank")
		if err != nil {
			return err
		}
		if !ok || rank < 0 {
			return fmt.Errorf("%s needs rank=R", kind)
		}
		switch kind {
		case "slow":
			f, ok, err := getFloat("factor")
			if err != nil {
				return err
			}
			if !ok || f <= 1 {
				return fmt.Errorf("slow needs factor>1, got %g", f)
			}
			p.slow[rank] = f
		case "crash":
			n, ok, err := getInt("iter")
			if err != nil {
				return err
			}
			if !ok || n < 0 {
				return fmt.Errorf("crash needs iter=N")
			}
			p.crash[rank] = n
		case "ecc":
			n, ok, err := getInt("launch")
			if err != nil {
				return err
			}
			if !ok || n < 0 {
				return fmt.Errorf("ecc needs launch=N")
			}
			p.ecc[rank] = n
		}
		p.rankRuleTexts = append(p.rankRuleTexts, line)
		return nil
	}
	return fmt.Errorf("unknown directive %q", kind)
}

// parseLink parses "S->D" (also accepting "S→D").
func parseLink(s string) (src, dst int, err error) {
	a, b, ok := strings.Cut(s, "->")
	if !ok {
		a, b, ok = strings.Cut(s, "→")
	}
	if !ok {
		return 0, 0, fmt.Errorf("link=%q: want S->D", s)
	}
	if src, err = strconv.Atoi(a); err != nil {
		return 0, 0, fmt.Errorf("link=%q: %w", s, err)
	}
	if dst, err = strconv.Atoi(b); err != nil {
		return 0, 0, fmt.Errorf("link=%q: %w", s, err)
	}
	if src < 0 || dst < 0 || src == dst {
		return 0, 0, fmt.Errorf("link=%q: want two distinct ranks", s)
	}
	return src, dst, nil
}

// parseDuration parses a virtual duration with ns/us/µs/ms/s suffix;
// a bare number is seconds.
func parseDuration(s string) (float64, error) {
	mult := 1.0
	num := s
	for _, u := range []struct {
		suffix string
		mult   float64
	}{{"ns", 1e-9}, {"µs", 1e-6}, {"us", 1e-6}, {"ms", 1e-3}, {"s", 1}} {
		if strings.HasSuffix(s, u.suffix) {
			mult = u.mult
			num = strings.TrimSuffix(s, u.suffix)
			break
		}
	}
	f, err := parseFinite(num)
	if err != nil {
		return 0, fmt.Errorf("duration %q: %w", s, err)
	}
	if f < 0 {
		return 0, fmt.Errorf("duration %q: negative", s)
	}
	return f * mult, nil
}

// parseFinite parses a float and rejects NaN and ±Inf, which every
// comparison-based range check of the grammar would let through.
func parseFinite(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("%q is not a finite number", s)
	}
	return f, nil
}
