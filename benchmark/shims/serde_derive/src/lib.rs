//! No-op stand-ins for `#[derive(Serialize, Deserialize)]`.
//!
//! The product crates derive the serde traits on five types and no
//! serializer exists in the tree, so nothing ever requires the impls:
//! the derives expand to nothing.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
