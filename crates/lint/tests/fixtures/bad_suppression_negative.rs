// Fixture: a well-formed allow — known rule, non-empty reason — passes,
// both alone on a line and trailing code.
use rayon::prelude::*;

pub fn reasoned(xs: &[f64]) -> f64 {
    // lint:allow(unordered_float_reduction, reason="integral values: any summation order is exact")
    xs.par_iter().sum()
}

pub fn trailing(xs: &[u32]) -> u32 {
    xs[0] // lint:allow(slice_index, reason="callers pass a non-empty slice")
}
