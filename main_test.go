package cqjoin_test

import (
	"testing"

	"cqjoin/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
