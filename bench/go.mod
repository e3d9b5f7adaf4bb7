module cqjoin/bench

go 1.22

require cqjoin v0.0.0

replace cqjoin => ../
