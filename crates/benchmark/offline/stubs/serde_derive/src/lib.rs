//! No-op `Serialize`/`Deserialize` derives for the `serde` stand-in.
use proc_macro::TokenStream;

/// Accepts `#[serde(..)]` attributes and emits nothing.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn serialize(_: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Accepts `#[serde(..)]` attributes and emits nothing.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn deserialize(_: TokenStream) -> TokenStream {
    TokenStream::new()
}
