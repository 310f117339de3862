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
