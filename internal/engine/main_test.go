package engine

import (
	"testing"

	"cqjoin/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
