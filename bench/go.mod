module fsdinference/bench

go 1.21

require fsdinference v0.0.0

replace fsdinference => ../
