module updown/bench

go 1.22

require updown v0.0.0

replace updown => ../
