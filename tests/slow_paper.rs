//! Slow tier: paper-scale figure claims, ignored in the default
//! (debug) test run.
//!
//! The quick-scale figure tests assert *directional* claims (signs of
//! the bias) because error-magnitude comparisons swing with the trace
//! realization at 2^17/9-instance scale. At `Scale::Paper` (2^21-point
//! traces, 21 instances, the full low-rate grid) the **magnitude**
//! comparisons stabilize; this tier pins the ones that hold across
//! seeds (probed at seeds {1, 7, 424242, 20050607}):
//!
//! * fig16: BSS's |signed bias| is strictly smaller than systematic's —
//!   the deliberate bias *nets out closer to the truth*, not merely on
//!   the other side of it;
//! * fig18: the paper's headline fidelity metric 1−η ranks BSS above
//!   both unbiased baselines;
//! * adaptive ablation: BSS beats systematic on |bias| while rate
//!   adaptation only reaches its accuracy by spending ~10× its nominal
//!   budget (BSS ≈ 1.03×).
//!
//! Run with:
//!
//! ```text
//! cargo test -q --release -- --ignored
//! ```
//!
//! In release the three tests take about 3 s of test time (2.9–3.4 s
//! measured on a 2-vCPU container), so CI runs them as a separate job
//! that gates like every other: the fixed-seed paper-scale pins are
//! deterministic, not a noisy signal.

use sst_bench::figures::run_one;
use sst_bench::{Ctx, Scale};

fn nums_in(s: &str) -> Vec<f64> {
    s.split(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .filter_map(|t| t.parse().ok())
        .collect()
}

fn paper_ctx() -> Ctx {
    // The default reproduction seed, at full scale.
    Ctx::new(Scale::Paper, 20050607)
}

#[test]
#[ignore = "paper-scale; run with -- --ignored"]
fn fig16_bss_bias_magnitude_beats_systematic_at_paper_scale() {
    let rep = run_one("fig16", &paper_ctx()).expect("fig16 exists");
    // notes[1]: "panel (b) signed bias: BSS X vs systematic Y".
    let nums = nums_in(&rep.notes[1]);
    let (bss_bias, sys_bias) = (nums[nums.len() - 2], nums[nums.len() - 1]);
    assert!(
        sys_bias < 0.0,
        "systematic should underestimate: signed bias {sys_bias}"
    );
    assert!(
        bss_bias.abs() < sys_bias.abs(),
        "at paper scale BSS's bias magnitude must beat systematic's: \
         |{bss_bias}| vs |{sys_bias}|"
    );
}

#[test]
#[ignore = "paper-scale; run with -- --ignored"]
fn fig18_fidelity_ordering_at_paper_scale() {
    // The headline evaluation's magnitude ordering on the paper's
    // fidelity metric (paper: 1−η of 0.922 BSS / 0.66 systematic /
    // 0.81 simple). The quick tier asserts BSS ≥ systematic; at paper
    // scale BSS strictly tops *both* unbiased baselines.
    let rep = run_one("fig18", &paper_ctx()).expect("fig18 exists");
    // notes[1]: "average 1−η: BSS X vs systematic Y vs simple Z (…)".
    let nums = nums_in(&rep.notes[1]);
    let (bss, sys, simple) = (nums[0], nums[1], nums[2]);
    assert!(
        bss > sys,
        "1−η ordering: BSS {bss} must strictly beat systematic {sys} at paper scale"
    );
    assert!(
        bss > simple,
        "1−η ordering: BSS {bss} must strictly beat simple random {simple} at paper scale"
    );
}

#[test]
#[ignore = "paper-scale; run with -- --ignored"]
fn adaptive_ablation_magnitudes_at_paper_scale() {
    let rep = run_one("adaptive", &paper_ctx()).expect("adaptive figure exists");
    // notes[2]: "signed bias: systematic A / adaptive B / BSS C".
    let nums = nums_in(&rep.notes[2]);
    let (sys_bias, adapt_bias, bss_bias) = (nums[0], nums[1], nums[2]);
    assert!(
        bss_bias.abs() < sys_bias.abs(),
        "BSS |bias| {bss_bias} must beat systematic {sys_bias} at paper scale"
    );
    assert!(
        adapt_bias < 0.0,
        "adaptive stays biased low even at paper scale: {adapt_bias}"
    );
    // notes[1]: "adaptive spends Ax … BSS spends Cx — … (Figs. 18/20) …".
    let spend = nums_in(&rep.notes[1]);
    let (adapt_spend, bss_spend) = (spend[0], spend[2]);
    assert!(
        adapt_spend > 5.0 * bss_spend,
        "adaptation's accuracy is bought with budget: adaptive {adapt_spend}x \
         vs BSS {bss_spend}x nominal"
    );
    assert!(
        bss_spend < 1.5,
        "BSS stays near its nominal budget: {bss_spend}x"
    );
}
