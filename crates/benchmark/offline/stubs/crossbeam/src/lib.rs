//! Stand-in for `crossbeam`: the SSTD crates name it as a dependency
//! but call nothing from it.
