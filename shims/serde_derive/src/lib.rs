//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! vendored `serde` shim.
//!
//! This environment has no access to crates.io, so the real `serde_derive`
//! (and its `syn`/`quote` dependency tree) cannot be used. This macro
//! parses the item's token stream directly and emits impls of the shim's
//! value-tree traits (`serde::Serialize::serialize(&self) -> Value` and
//! `serde::Deserialize::deserialize(&Value) -> Result<Self, DeError>`).
//!
//! Supported shapes — everything this workspace derives on:
//! - structs with named fields,
//! - tuple structs (including `#[serde(transparent)]` newtypes),
//! - unit structs,
//! - enums with unit, named-field, newtype and tuple variants
//!   (externally tagged, matching serde's default representation).
//!
//! Generic items are intentionally unsupported and produce a compile
//! error; the workspace does not serialize any.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives the shim's `Serialize` trait. Honors `#[serde(transparent)]`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item).parse().expect("generated impl parses")
}

/// Derives the shim's `Deserialize` trait. Honors `#[serde(transparent)]`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated impl parses")
}

struct Item {
    name: String,
    transparent: bool,
    kind: ItemKind,
}

enum ItemKind {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    fields: VariantFields,
}

enum VariantFields {
    Unit,
    Named(Vec<String>),
    Tuple(usize),
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let mut transparent = false;

    // Outer attributes (doc comments, #[serde(...)], #[repr(...)], ...).
    while i + 1 < tokens.len() {
        if let TokenTree::Punct(p) = &tokens[i] {
            if p.as_char() == '#' {
                if let TokenTree::Group(g) = &tokens[i + 1] {
                    if attr_is_serde_transparent(g.stream()) {
                        transparent = true;
                    }
                }
                i += 2;
                continue;
            }
        }
        break;
    }

    skip_visibility(&tokens, &mut i);

    let keyword = expect_ident(&tokens, &mut i);
    let name = expect_ident(&tokens, &mut i);
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("serde shim derive does not support generic types ({name})");
        }
    }

    let kind = match keyword.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                ItemKind::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                ItemKind::TupleStruct(count_tuple_fields(g.stream()))
            }
            _ => ItemKind::UnitStruct,
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                ItemKind::Enum(parse_variants(g.stream()))
            }
            _ => panic!("enum {name} has no body"),
        },
        other => panic!("serde shim derive supports struct/enum, got `{other}`"),
    };

    Item {
        name,
        transparent,
        kind,
    }
}

fn attr_is_serde_transparent(stream: TokenStream) -> bool {
    let inner: Vec<TokenTree> = stream.into_iter().collect();
    match (inner.first(), inner.get(1)) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) if id.to_string() == "serde" => {
            args.stream()
                .into_iter()
                .any(|t| matches!(&t, TokenTree::Ident(a) if a.to_string() == "transparent"))
        }
        _ => false,
    }
}

fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = tokens.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

fn skip_attributes(tokens: &[TokenTree], i: &mut usize) {
    while *i + 1 < tokens.len() {
        match &tokens[*i] {
            TokenTree::Punct(p) if p.as_char() == '#' => *i += 2,
            _ => break,
        }
    }
}

fn expect_ident(tokens: &[TokenTree], i: &mut usize) -> String {
    match tokens.get(*i) {
        Some(TokenTree::Ident(id)) => {
            *i += 1;
            id.to_string()
        }
        other => panic!("expected identifier, got {other:?}"),
    }
}

/// Consumes tokens up to (and including) the next comma that sits outside
/// any `<...>` nesting. Delimited groups are single tokens, so only angle
/// brackets need explicit depth tracking.
fn skip_past_toplevel_comma(tokens: &[TokenTree], i: &mut usize) {
    let mut angle = 0i32;
    while *i < tokens.len() {
        if let TokenTree::Punct(p) = &tokens[*i] {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => {
                    *i += 1;
                    return;
                }
                _ => {}
            }
        }
        *i += 1;
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut fields = Vec::new();
    while i < tokens.len() {
        skip_attributes(&tokens, &mut i);
        skip_visibility(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        fields.push(expect_ident(&tokens, &mut i));
        // Skip the `:` and the type, up to the field separator.
        skip_past_toplevel_comma(&tokens, &mut i);
    }
    fields
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut count = 0;
    while i < tokens.len() {
        skip_attributes(&tokens, &mut i);
        skip_visibility(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        count += 1;
        skip_past_toplevel_comma(&tokens, &mut i);
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut variants = Vec::new();
    while i < tokens.len() {
        skip_attributes(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = expect_ident(&tokens, &mut i);
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantFields::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantFields::Tuple(count_tuple_fields(g.stream()))
            }
            _ => VariantFields::Unit,
        };
        variants.push(Variant { name, fields });
        skip_past_toplevel_comma(&tokens, &mut i);
    }
    variants
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        ItemKind::NamedStruct(fields) => {
            if item.transparent && fields.len() == 1 {
                format!("::serde::Serialize::serialize(&self.{})", fields[0])
            } else {
                let mut s = format!(
                    "let mut fields: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
                     ::std::vec::Vec::with_capacity({});\n",
                    fields.len()
                );
                for f in fields {
                    s.push_str(&format!(
                        "fields.push((::std::string::String::from(\"{f}\"), \
                         ::serde::Serialize::serialize(&self.{f})));\n"
                    ));
                }
                s.push_str("::serde::Value::Object(fields)");
                s
            }
        }
        ItemKind::TupleStruct(len) => {
            if item.transparent && *len == 1 {
                "::serde::Serialize::serialize(&self.0)".to_owned()
            } else {
                let elems: Vec<String> = (0..*len)
                    .map(|k| format!("::serde::Serialize::serialize(&self.{k})"))
                    .collect();
                format!("::serde::Value::Array(vec![{}])", elems.join(", "))
            }
        }
        ItemKind::UnitStruct => "::serde::Value::Null".to_owned(),
        ItemKind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.fields {
                    VariantFields::Unit => arms.push_str(&format!(
                        "{name}::{vname} => \
                         ::serde::Value::Str(::std::string::String::from(\"{vname}\")),\n"
                    )),
                    VariantFields::Named(fields) => {
                        let bindings = fields.join(", ");
                        let mut pushes = String::new();
                        for f in fields {
                            pushes.push_str(&format!(
                                "inner.push((::std::string::String::from(\"{f}\"), \
                                 ::serde::Serialize::serialize({f})));\n"
                            ));
                        }
                        let capacity = fields.len();
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {bindings} }} => {{\n\
                             let mut inner: ::std::vec::Vec<(::std::string::String, \
                             ::serde::Value)> = ::std::vec::Vec::with_capacity({capacity});\n\
                             {pushes}\
                             ::serde::Value::Object(vec![(::std::string::String::from(\
                             \"{vname}\"), ::serde::Value::Object(inner))])\n}}\n"
                        ));
                    }
                    VariantFields::Tuple(len) => {
                        let bindings: Vec<String> = (0..*len).map(|k| format!("f{k}")).collect();
                        let inner = if *len == 1 {
                            "::serde::Serialize::serialize(f0)".to_owned()
                        } else {
                            let elems: Vec<String> = bindings
                                .iter()
                                .map(|b| format!("::serde::Serialize::serialize({b})"))
                                .collect();
                            format!("::serde::Value::Array(vec![{}])", elems.join(", "))
                        };
                        arms.push_str(&format!(
                            "{name}::{vname}({}) => ::serde::Value::Object(vec![(\
                             ::std::string::String::from(\"{vname}\"), {inner})]),\n",
                            bindings.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
         fn serialize(&self) -> ::serde::Value {{\n{body}\n}}\n}}\n"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        ItemKind::NamedStruct(fields) => {
            if item.transparent && fields.len() == 1 {
                format!(
                    "::std::result::Result::Ok({name} {{ {}: \
                     ::serde::Deserialize::deserialize(v)? }})",
                    fields[0]
                )
            } else {
                let mut inits = String::new();
                for f in fields {
                    inits.push_str(&format!(
                        "{f}: ::serde::Deserialize::deserialize(::serde::get_field(obj, \
                         \"{f}\"))?,\n"
                    ));
                }
                format!(
                    "let obj = v.as_object().ok_or_else(|| ::serde::DeError::new(\
                     \"expected object for {name}\"))?;\n\
                     ::std::result::Result::Ok({name} {{\n{inits}}})"
                )
            }
        }
        ItemKind::TupleStruct(len) => {
            if item.transparent && *len == 1 {
                format!("::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(v)?))")
            } else {
                let elems: Vec<String> = (0..*len)
                    .map(|k| {
                        format!(
                            "::serde::Deserialize::deserialize(arr.get({k}).unwrap_or(\
                             &::serde::Value::Null))?"
                        )
                    })
                    .collect();
                format!(
                    "let arr = v.as_array().ok_or_else(|| ::serde::DeError::new(\
                     \"expected array for {name}\"))?;\n\
                     ::std::result::Result::Ok({name}({}))",
                    elems.join(", ")
                )
            }
        }
        ItemKind::UnitStruct => format!("::std::result::Result::Ok({name})"),
        ItemKind::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.fields {
                    VariantFields::Unit => unit_arms.push_str(&format!(
                        "\"{vname}\" => ::std::result::Result::Ok({name}::{vname}),\n"
                    )),
                    VariantFields::Named(fields) => {
                        let mut inits = String::new();
                        for f in fields {
                            inits.push_str(&format!(
                                "{f}: ::serde::Deserialize::deserialize(::serde::get_field(\
                                 obj, \"{f}\"))?,\n"
                            ));
                        }
                        tagged_arms.push_str(&format!(
                            "\"{vname}\" => {{\n\
                             let obj = inner.as_object().ok_or_else(|| ::serde::DeError::new(\
                             \"expected object for {name}::{vname}\"))?;\n\
                             ::std::result::Result::Ok({name}::{vname} {{\n{inits}}})\n}}\n"
                        ));
                    }
                    VariantFields::Tuple(len) => {
                        if *len == 1 {
                            tagged_arms.push_str(&format!(
                                "\"{vname}\" => ::std::result::Result::Ok({name}::{vname}(\
                                 ::serde::Deserialize::deserialize(inner)?)),\n"
                            ));
                        } else {
                            let elems: Vec<String> = (0..*len)
                                .map(|k| {
                                    format!(
                                        "::serde::Deserialize::deserialize(arr.get({k})\
                                         .unwrap_or(&::serde::Value::Null))?"
                                    )
                                })
                                .collect();
                            tagged_arms.push_str(&format!(
                                "\"{vname}\" => {{\n\
                                 let arr = inner.as_array().ok_or_else(|| \
                                 ::serde::DeError::new(\"expected array for \
                                 {name}::{vname}\"))?;\n\
                                 ::std::result::Result::Ok({name}::{vname}({}))\n}}\n",
                                elems.join(", ")
                            ));
                        }
                    }
                }
            }
            format!(
                "match v {{\n\
                 ::serde::Value::Str(s) => match s.as_str() {{\n\
                 {unit_arms}\
                 other => ::std::result::Result::Err(::serde::DeError::new(format!(\
                 \"unknown unit variant `{{other}}` for {name}\"))),\n\
                 }},\n\
                 ::serde::Value::Object(entries) if entries.len() == 1 => {{\n\
                 let (tag, inner) = &entries[0];\n\
                 match tag.as_str() {{\n\
                 {tagged_arms}\
                 other => ::std::result::Result::Err(::serde::DeError::new(format!(\
                 \"unknown variant `{{other}}` for {name}\"))),\n\
                 }}\n\
                 }},\n\
                 _ => ::std::result::Result::Err(::serde::DeError::new(\
                 \"expected string or single-key object for {name}\")),\n\
                 }}"
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
         fn deserialize(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> \
         {{\n{body}\n}}\n}}\n"
    )
}
