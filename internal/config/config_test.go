package config

import (
	"strings"
	"testing"
)

// TestDefaultIsValid checks the paper's configuration validates.
func TestDefaultIsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default configuration invalid: %v", err)
	}
}

// TestValidateRejectsBadGeometry checks a few representative invalid configs.
func TestValidateRejectsBadGeometry(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.NumCores = 0 },
		func(c *Config) { c.LineSize = 60 },
		func(c *Config) { c.L1Size = 1000 },
		func(c *Config) { c.MemBandwidthGBs = 0 },
		func(c *Config) { c.ReadSignatureBits = 1000 }, // not a power of two
		func(c *Config) { c.BandwidthScale = 0 },
		func(c *Config) { c.ConflictPolicy = ConflictPolicy(9) },
	}
	for i, mutate := range cases {
		cfg := Default()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid configuration accepted", i)
		}
	}
}

// TestValidateRejectsTooManyCores checks the core-count limit: 64 cores
// validate, 65 do not (one sharer bit per core in a 64-bit vector; core 64's
// bit would be 1<<64 == 0, so its stale copies would never be invalidated).
func TestValidateRejectsTooManyCores(t *testing.T) {
	cfg := Default()
	cfg.NumCores = MaxCores
	if err := cfg.Validate(); err != nil {
		t.Fatalf("%d cores rejected: %v", MaxCores, err)
	}
	cfg.NumCores = MaxCores + 1
	err := cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), "limit of 64 cores") {
		t.Fatalf("65 cores: Validate() = %v, want an error naming the 64-core limit", err)
	}
}

// TestValidateRequiresPowerOfTwoGeometry checks that the line size and both
// set counts must be powers of two (the caches index sets with a shift and a
// mask), while the associativity need not be.
func TestValidateRequiresPowerOfTwoGeometry(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"96-byte lines":    func(c *Config) { c.LineSize, c.L1Size, c.LLCSize = 96, 96*4*128, 96*16*8192 },
		"96 L1 sets":       func(c *Config) { c.L1Size = 96 * 64 * 4 },
		"12288 LLC sets":   func(c *Config) { c.LLCSize = 12 * 1024 * 1024 },
		"6-way, 3 L1 sets": func(c *Config) { c.L1Size, c.L1Ways = 3*64*6, 6 },
	} {
		cfg := Default()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "power of two") {
			t.Errorf("%s: Validate() = %v, want a power-of-two error", name, err)
		}
	}
	cfg := Default()
	cfg.L1Size, cfg.L1Ways = 3*64*128, 3 // 3 ways, 128 sets
	if err := cfg.Validate(); err != nil {
		t.Errorf("3-way L1 with 128 sets rejected: %v", err)
	}
}

// TestGeometryDerivations checks the derived cache geometry and the bandwidth
// to cycle conversion against hand-computed values for Table III.
func TestGeometryDerivations(t *testing.T) {
	cfg := Default()
	if got := cfg.L1Sets(); got != 128 {
		t.Errorf("L1Sets = %d, want 128 (32 KB / 64 B / 4 ways)", got)
	}
	if got := cfg.L1Size / cfg.LineSize; got != 512 {
		t.Errorf("L1 holds %d lines, want 512", got)
	}
	if got := cfg.LLCSets(); got != 8192 {
		t.Errorf("LLCSets = %d, want 8192 (8 MB / 64 B / 16 ways)", got)
	}
	// 64 B at 5.3 GB/s and 2 GHz is ~24 cycles.
	if got := cfg.LineTransferCycles(); got < 20 || got > 28 {
		t.Errorf("LineTransferCycles = %d, want ~24", got)
	}
	if got := cfg.LineAddr(0x12345); got != 0x12340 {
		t.Errorf("LineAddr = %#x, want 0x12340", got)
	}
	if cfg.WordsPerLine() != 8 {
		t.Errorf("WordsPerLine = %d, want 8", cfg.WordsPerLine())
	}
}
