// Fixture: allows without a reason, or naming an unknown rule, must be
// flagged (even in test code — a malformed allow is wrong anywhere).
use rayon::prelude::*;

// lint:allow(unordered_float_reduction)
pub fn reasonless(xs: &[f64]) -> f64 {
    xs.par_iter().sum()
}

// lint:allow(unordered_float_reduction, reason="")
pub fn empty_reason() -> u32 {
    0
}

// lint:allow(made_up_rule, reason="this rule does not exist")
pub fn unknown_rule() -> u32 {
    0
}
