//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! vendored `serde` shim.
//!
//! The workspace builds offline, so the real `serde_derive` (and its
//! `syn`/`quote` dependency tree) is not used. This macro parses the
//! item's token stream directly and emits straight-line impls of the
//! shim's JSON traits:
//!
//! - `Serialize::serialize(&self, &mut Writer)` opens the object or
//!   array, writes each field under its name — a quoted literal — and
//!   closes it;
//! - `Deserialize::deserialize(&mut Reader)` walks the object's keys and
//!   matches each against the field names as string literals: keys may
//!   come in any order, the first of a repeated key wins, unknown keys
//!   are skipped, and a missing field reads as `null` (so an `Option`
//!   field becomes `None`). Arrays read element by element, with missing
//!   elements as `null` and extra ones skipped.
//!
//! Neither builds an intermediate document. Supported shapes — everything
//! this workspace derives on:
//! - structs with named fields,
//! - tuple structs (including `#[serde(transparent)]` newtypes),
//! - unit structs (written as `null`; any value reads as one),
//! - enums with unit, named-field, newtype and tuple variants
//!   (externally tagged, matching serde's default representation: a
//!   unit variant is a string, a data variant a single-key object).
//!
//! Generic items are intentionally unsupported and produce a compile
//! error; the workspace does not serialize any.

#![forbid(unsafe_code)]

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
        ItemKind::NamedStruct(fields) if item.transparent && fields.len() == 1 => {
            format!("::serde::Serialize::serialize(&self.{}, __w);", fields[0])
        }
        ItemKind::NamedStruct(fields) => {
            write_object(fields.iter().map(|f| (f, format!("&self.{f}"))))
        }
        ItemKind::TupleStruct(1) if item.transparent => {
            "::serde::Serialize::serialize(&self.0, __w);".to_owned()
        }
        ItemKind::TupleStruct(len) => write_array((0..*len).map(|k| format!("&self.{k}"))),
        ItemKind::UnitStruct => "__w.null();".to_owned(),
        ItemKind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                let (pattern, inner) = match &v.fields {
                    VariantFields::Unit => {
                        arms.push_str(&format!("{name}::{vname} => __w.raw({}),\n", quoted(vname)));
                        continue;
                    }
                    VariantFields::Named(fields) => {
                        let bindings: Vec<String> =
                            fields.iter().map(|f| format!("{f}: __f_{f}")).collect();
                        (
                            format!("{{ {} }}", bindings.join(", ")),
                            write_object(fields.iter().map(|f| (f, format!("__f_{f}")))),
                        )
                    }
                    VariantFields::Tuple(len) => {
                        let bindings: Vec<String> = (0..*len).map(|k| format!("__f{k}")).collect();
                        let inner = if *len == 1 {
                            "::serde::Serialize::serialize(__f0, __w);".to_owned()
                        } else {
                            write_array(bindings.iter().cloned())
                        };
                        (format!("({})", bindings.join(", ")), inner)
                    }
                };
                // Externally tagged: `{"Variant": <fields>}`.
                arms.push_str(&format!(
                    "{name}::{vname} {pattern} => {{\n\
                     __w.begin_object();\n\
                     __w.quoted_key({});\n\
                     {inner}\
                     __w.end_object();\n\
                     }}\n",
                    quoted(vname)
                ));
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
         fn serialize(&self, __w: &mut ::serde::Writer<'_>) {{\n{body}\n}}\n}}\n"
    )
}

/// Statements writing an object of `(field name, value reference)`
/// entries.
fn write_object<'a>(fields: impl Iterator<Item = (&'a String, String)>) -> String {
    let mut s = "__w.begin_object();\n".to_owned();
    for (f, value) in fields {
        s.push_str(&format!(
            "__w.quoted_key({});\n::serde::Serialize::serialize({value}, __w);\n",
            quoted(f)
        ));
    }
    s.push_str("__w.end_object();\n");
    s
}

/// `name` as the source of a Rust string literal holding its JSON form:
/// `client_job` becomes `"\"client_job\""`. Identifiers hold nothing
/// JSON escapes.
fn quoted(name: &str) -> String {
    format!("\"\\\"{name}\\\"\"")
}

/// Statements writing an array of value references.
fn write_array(elems: impl Iterator<Item = String>) -> String {
    let mut s = "__w.begin_array();\n".to_owned();
    for value in elems {
        s.push_str(&format!("__w.element({value});\n"));
    }
    s.push_str("__w.end_array();\n");
    s
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let ok = "::std::result::Result::Ok";
    let body = match &item.kind {
        ItemKind::NamedStruct(fields) if item.transparent && fields.len() == 1 => format!(
            "{ok}({name} {{ {}: ::serde::Deserialize::deserialize(__r)? }})",
            fields[0]
        ),
        ItemKind::NamedStruct(fields) => format!("{ok}({{\n{}}})", read_object(name, fields)),
        ItemKind::TupleStruct(1) if item.transparent => {
            format!("{ok}({name}(::serde::Deserialize::deserialize(__r)?))")
        }
        ItemKind::TupleStruct(len) => format!("{ok}({{\n{}}})", read_array(name, *len)),
        // Any value reads as a unit struct.
        ItemKind::UnitStruct => format!("__r.skip_value()?;\n{ok}({name})"),
        ItemKind::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in variants {
                let vname = &v.name;
                let path = format!("{name}::{vname}");
                match &v.fields {
                    VariantFields::Unit => {
                        unit_arms.push_str(&format!("\"{vname}\" => {ok}({path}),\n"));
                    }
                    VariantFields::Named(fields) => data_arms.push_str(&format!(
                        "\"{vname}\" => {{\n{}}}\n",
                        read_object(&path, fields)
                    )),
                    VariantFields::Tuple(1) => data_arms.push_str(&format!(
                        "\"{vname}\" => {path}(::serde::Deserialize::deserialize(__r)?),\n"
                    )),
                    VariantFields::Tuple(len) => data_arms.push_str(&format!(
                        "\"{vname}\" => {{\n{}}}\n",
                        read_array(&path, *len)
                    )),
                }
            }
            let unknown = |kind: &str| {
                format!(
                    "::std::result::Result::Err(::serde::Error::new(::std::format!(\
                     \"unknown {kind}variant `{{__other}}` for {name}\")))"
                )
            };
            let unit_unknown = unknown("unit ");
            let data_unknown = unknown("");
            let data = if data_arms.is_empty() {
                format!("{{\nlet __other = __tag;\n{data_unknown}\n}}")
            } else {
                format!(
                    "{{\nlet __v = match &*__tag {{\n\
                     {data_arms}\
                     __other => return {data_unknown},\n\
                     }};\n\
                     __r.end_variant()?;\n\
                     {ok}(__v)\n\
                     }}"
                )
            };
            format!(
                "match __r.variant()? {{\n\
                 ::serde::VariantTag::Unit(__tag) => match &*__tag {{\n\
                 {unit_arms}\
                 __other => {unit_unknown},\n\
                 }},\n\
                 ::serde::VariantTag::Data(__tag) => {data}\n\
                 }}"
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
         fn deserialize(__r: &mut ::serde::Reader<'_>) \
         -> ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n}}\n"
    )
}

/// A block reading an object into `path { fields }`. Keys may come in
/// any order; the first of a repeated key wins, unknown keys are
/// skipped, and a missing field reads as `null`.
fn read_object(path: &str, fields: &[String]) -> String {
    let mut s = String::new();
    for f in fields {
        s.push_str(&format!("let mut __f_{f} = ::std::option::Option::None;\n"));
    }
    s.push_str(
        "__r.begin_object()?;\n\
         while let ::std::option::Option::Some(__key) = __r.next_key()? {\n\
         match &*__key {\n",
    );
    for f in fields {
        s.push_str(&format!(
            "\"{f}\" if __f_{f}.is_none() => __f_{f} = \
             ::std::option::Option::Some(::serde::Deserialize::deserialize(__r)?),\n"
        ));
    }
    s.push_str("_ => __r.skip_value()?,\n}\n}\n");
    s.push_str(&format!("{path} {{\n"));
    for f in fields {
        s.push_str(&format!(
            "{f}: __f_{f}.map_or_else(::serde::missing, ::std::result::Result::Ok)?,\n"
        ));
    }
    s.push_str("}\n");
    s
}

/// A block reading an array into `path(elements)`. Missing elements
/// read as `null`; extra ones are skipped.
fn read_array(path: &str, len: usize) -> String {
    let elems = vec!["__r.tuple_element(&mut __open)?"; len].join(", ");
    format!(
        "__r.begin_array()?;\n\
         let mut __open = true;\n\
         let __v = {path}({elems});\n\
         __r.end_tuple(__open)?;\n\
         __v\n"
    )
}
