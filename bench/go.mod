module github.com/policyscope/policyscope/bench

go 1.22

require github.com/policyscope/policyscope v0.0.0

replace github.com/policyscope/policyscope => ../
