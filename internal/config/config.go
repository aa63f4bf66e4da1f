// Package config holds the architectural parameters of the simulated system
// (Table III of the DHTM paper) together with the knobs that the evaluation
// sweeps: conflict-resolution policy, log-buffer size and memory bandwidth.
package config

import "fmt"

// ConflictPolicy selects which transaction aborts when a conflict is detected.
type ConflictPolicy int

const (
	// FirstWriterWins keeps the transaction that currently owns the line and
	// aborts the requester (IBM POWER8 behaviour, the paper's default).
	FirstWriterWins ConflictPolicy = iota
	// RequesterWins aborts the current owner and lets the requester proceed
	// (Intel RTM behaviour).
	RequesterWins
)

// String implements fmt.Stringer.
func (p ConflictPolicy) String() string {
	switch p {
	case FirstWriterWins:
		return "first-writer-wins"
	case RequesterWins:
		return "requester-wins"
	default:
		return fmt.Sprintf("ConflictPolicy(%d)", int(p))
	}
}

// ParseConflictPolicy is the inverse of String for the known policies.
func ParseConflictPolicy(s string) (ConflictPolicy, error) {
	for _, p := range []ConflictPolicy{FirstWriterWins, RequesterWins} {
		if s == p.String() {
			return p, nil
		}
	}
	return 0, fmt.Errorf("config: unknown conflict policy %q (valid: %s, %s)", s, FirstWriterWins, RequesterWins)
}

// Config captures every architectural parameter of the simulated machine.
// The zero value is not usable; start from Default and override fields.
type Config struct {
	// Cores and clock.
	NumCores   int     // number of in-order cores (8 in the paper)
	CPUFreqGHz float64 // core frequency used to convert bandwidth to cycles

	// Cache geometry (sizes in bytes).
	LineSize   int
	L1Size     int
	L1Ways     int
	L1Latency  uint64 // cycles for an L1 hit
	LLCSize    int    // aggregate LLC capacity across all tiles
	LLCWays    int
	LLCLatency uint64 // cycles for an LLC hit (includes interconnect)

	// Persistent memory timing.
	NVMReadLatency  uint64  // cycles until read data is available
	NVMWriteLatency uint64  // cycles until a write is durable
	MemBandwidthGBs float64 // peak memory bandwidth in GB/s
	// BandwidthScale multiplies MemBandwidthGBs; Table VII sweeps 1x/2x/10x.
	BandwidthScale float64

	// DHTM specific hardware.
	LogBufferEntries  int // fully associative log-buffer entries (64 default)
	ReadSignatureBits int // read-set overflow Bloom signature size in bits

	// Per-thread durable log sizing.
	LogBytesPerThread        int
	OverflowEntriesPerThread int

	// Transactional execution policy.
	ConflictPolicy ConflictPolicy
	MaxRetries     int    // retries before falling back to the software path
	AbortPenalty   uint64 // fixed pipeline-flush cost charged on an abort
	BackoffBase    uint64 // exponential backoff unit between retries

	// Software persistence costs (used by the SO and sdTM baselines).
	FlushIssueLatency   uint64 // cycles to issue a clwb/ntstore from the core
	FenceLatency        uint64 // cycles charged for an sfence besides draining
	LockAccessLatency   uint64 // extra cycles for a lock acquire/release round trip
	SoftLogStoreLatency uint64 // per-store cost of composing a software log entry
}

// Default returns the configuration used throughout the paper's evaluation
// (Table III): 8 in-order cores at 2 GHz, 32 KB 4-way L1s, an 8 MB 16-way LLC,
// 240/360-cycle NVM read/write latencies and 5.3 GB/s of memory bandwidth.
func Default() Config {
	return Config{
		NumCores:   8,
		CPUFreqGHz: 2.0,

		LineSize:   64,
		L1Size:     32 * 1024,
		L1Ways:     4,
		L1Latency:  3,
		LLCSize:    8 * 1024 * 1024,
		LLCWays:    16,
		LLCLatency: 30,

		NVMReadLatency:  240,
		NVMWriteLatency: 360,
		MemBandwidthGBs: 5.3,
		BandwidthScale:  1.0,

		LogBufferEntries:  64,
		ReadSignatureBits: 2048,

		LogBytesPerThread:        4 * 1024 * 1024,
		OverflowEntriesPerThread: 64 * 1024,

		ConflictPolicy: FirstWriterWins,
		MaxRetries:     32,
		AbortPenalty:   80,
		BackoffBase:    120,

		FlushIssueLatency:   40,
		FenceLatency:        20,
		LockAccessLatency:   20,
		SoftLogStoreLatency: 12,
	}
}

// MaxCores is the largest core count the simulated machine supports: the
// directory's sharer vector (cache.Line.Sharers) and the hierarchy's watch
// set both keep one bit per core in a uint64.
const MaxCores = 64

// Validate checks internal consistency of the configuration.
func (c Config) Validate() error {
	switch {
	case c.NumCores <= 0:
		return fmt.Errorf("config: NumCores must be positive, got %d", c.NumCores)
	case c.NumCores > MaxCores:
		return fmt.Errorf("config: NumCores %d exceeds the limit of %d cores (one sharer bit per core in a 64-bit directory vector)", c.NumCores, MaxCores)
	case c.CPUFreqGHz <= 0:
		return fmt.Errorf("config: CPUFreqGHz must be positive, got %g", c.CPUFreqGHz)
	case !isPow2(c.LineSize) || c.LineSize < 8:
		return fmt.Errorf("config: LineSize must be a power of two and a multiple of 8, got %d", c.LineSize)
	case c.L1Size <= 0 || c.L1Ways <= 0:
		return fmt.Errorf("config: invalid L1 geometry %d bytes / %d ways", c.L1Size, c.L1Ways)
	case c.L1Size%(c.LineSize*c.L1Ways) != 0:
		return fmt.Errorf("config: L1Size %d not divisible by LineSize*Ways", c.L1Size)
	case !isPow2(c.L1Sets()):
		return fmt.Errorf("config: L1 set count must be a power of two, got %d", c.L1Sets())
	case c.LLCSize <= 0 || c.LLCWays <= 0:
		return fmt.Errorf("config: invalid LLC geometry %d bytes / %d ways", c.LLCSize, c.LLCWays)
	case c.LLCSize%(c.LineSize*c.LLCWays) != 0:
		return fmt.Errorf("config: LLCSize %d not divisible by LineSize*Ways", c.LLCSize)
	case !isPow2(c.LLCSets()):
		return fmt.Errorf("config: LLC set count must be a power of two, got %d", c.LLCSets())
	case c.MemBandwidthGBs <= 0:
		return fmt.Errorf("config: MemBandwidthGBs must be positive, got %g", c.MemBandwidthGBs)
	case c.BandwidthScale <= 0:
		return fmt.Errorf("config: BandwidthScale must be positive, got %g", c.BandwidthScale)
	case c.LogBufferEntries <= 0:
		return fmt.Errorf("config: LogBufferEntries must be positive, got %d", c.LogBufferEntries)
	case !isPow2(c.ReadSignatureBits):
		return fmt.Errorf("config: ReadSignatureBits must be a positive power of two, got %d", c.ReadSignatureBits)
	case c.LogBytesPerThread <= 0:
		return fmt.Errorf("config: LogBytesPerThread must be positive, got %d", c.LogBytesPerThread)
	case c.OverflowEntriesPerThread <= 0:
		return fmt.Errorf("config: OverflowEntriesPerThread must be positive, got %d", c.OverflowEntriesPerThread)
	case c.MaxRetries <= 0:
		return fmt.Errorf("config: MaxRetries must be positive, got %d", c.MaxRetries)
	}
	if c.ConflictPolicy != FirstWriterWins && c.ConflictPolicy != RequesterWins {
		return fmt.Errorf("config: unknown conflict policy %d", int(c.ConflictPolicy))
	}
	return nil
}

// isPow2 reports whether n is a positive power of two. The caches index sets
// with a shift and a mask, so line size and set counts must qualify.
func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// WordsPerLine returns the number of 8-byte words per cache line.
func (c Config) WordsPerLine() int { return c.LineSize / 8 }

// LineTransferCycles returns the memory-channel occupancy, in core cycles, of
// transferring one cache line at the configured (scaled) bandwidth.
func (c Config) LineTransferCycles() uint64 {
	return c.TransferCycles(c.LineSize)
}

// TransferCycles returns the channel occupancy in cycles for n bytes.
func (c Config) TransferCycles(n int) uint64 {
	bw := c.MemBandwidthGBs * c.BandwidthScale // GB/s == bytes/ns
	seconds := float64(n) / (bw * 1e9)
	cycles := seconds * c.CPUFreqGHz * 1e9
	u := uint64(cycles)
	if u == 0 && n > 0 {
		u = 1
	}
	return u
}

// L1Sets returns the number of sets in each private L1.
func (c Config) L1Sets() int { return c.L1Size / (c.LineSize * c.L1Ways) }

// LLCSets returns the number of sets in the shared LLC.
func (c Config) LLCSets() int { return c.LLCSize / (c.LineSize * c.LLCWays) }

// LineAddr returns the line-aligned address containing addr.
func (c Config) LineAddr(addr uint64) uint64 {
	return addr &^ uint64(c.LineSize-1)
}
