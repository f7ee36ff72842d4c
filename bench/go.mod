module gignite/bench

go 1.22

require gignite v0.0.0

replace gignite => ../
