package machine

import (
	"fmt"
	"math/bits"

	"repro/internal/cachesim"
)

// Cache is one level of the hierarchy: the shared set-associative LRU
// (package cachesim), addressed by byte. Tags only — no data is stored.
type Cache struct {
	cfg      CacheConfig
	lineBits uint
	lru      *cachesim.LRU
}

// NewCache builds a cache from the configuration. Size must be a positive
// multiple of Ways*LineBytes, the line size and the set count powers of two.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.LineBytes <= 0 {
		return nil, fmt.Errorf("machine: invalid cache config %+v", cfg)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines*cfg.LineBytes != cfg.SizeBytes {
		return nil, fmt.Errorf("machine: cache size %d not divisible into %d-byte lines", cfg.SizeBytes, cfg.LineBytes)
	}
	lineBits := uint(bits.TrailingZeros(uint(cfg.LineBytes)))
	if 1<<lineBits != cfg.LineBytes {
		return nil, fmt.Errorf("machine: line size %d not a power of two", cfg.LineBytes)
	}
	lru, err := cachesim.New(lines, cfg.Ways)
	if err != nil {
		return nil, fmt.Errorf("machine: cache size %d: %w", cfg.SizeBytes, err)
	}
	return &Cache{cfg: cfg, lineBits: lineBits, lru: lru}, nil
}

// Access touches the line containing addr and reports whether it hit.
// Misses install the line, evicting the LRU way.
func (c *Cache) Access(addr uint64) bool { return c.lru.Access(addr >> c.lineBits) }
