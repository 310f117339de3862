//! One module per paper artifact (table or figure).

pub mod accuracy;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod recovery;
pub mod robustness;
pub mod table2;
pub mod tournament;
pub mod trace_gate;
pub mod tuning;

/// Formats an `f64` as a JSON value (`null` when not finite).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
