//! Workspace-local stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! shapes this repository uses against the shim `serde` crate's
//! `Value`-based traits:
//!
//! * structs with named fields;
//! * externally tagged enums of unit and struct variants (a unit variant
//!   is its name as a string, a struct variant a one-entry map);
//! * internally tagged enums (`tag = "..."`) of struct variants.
//!
//! Supported `#[serde(...)]` attributes:
//!
//! * field: `default`, `default = "path"`, `skip_serializing_if = "path"`;
//! * container: `tag = "..."`, `rename_all = "snake_case"`.
//!
//! A missing field without a `default` attribute is an error, `Option`
//! fields included. The macro parses the item's token stream directly
//! (no `syn`/`quote` available offline) and emits the impl as source text.
//! Generics are not supported; none of the workspace's serialized types
//! are generic.

use proc_macro::{Delimiter, TokenStream, TokenTree};

// ---------------------------------------------------------------------------
// Model
// ---------------------------------------------------------------------------

#[derive(Default)]
struct SerdeAttrs {
    default: bool,
    default_path: Option<String>,
    skip_if: Option<String>,
    tag: Option<String>,
    snake_case: bool,
}

struct Field {
    name: String,
    attrs: SerdeAttrs,
}

struct Variant {
    name: String,
    /// `None` for a unit variant.
    fields: Option<Vec<Field>>,
}

enum Body {
    Struct(Vec<Field>),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    attrs: SerdeAttrs,
    body: Body,
}

// ---------------------------------------------------------------------------
// Token-stream parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let attrs = parse_attrs(&tokens, &mut i);
    skip_visibility(&tokens, &mut i);
    let kw = expect_ident(&tokens, &mut i);
    let name = expect_ident(&tokens, &mut i);
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive shim: generic type `{name}` is not supported");
    }
    let body_group = match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        other => panic!("serde_derive shim: expected braced body for `{name}`, got {other:?}"),
    };
    let body_tokens: Vec<TokenTree> = body_group.into_iter().collect();
    let body = match kw.as_str() {
        "struct" => Body::Struct(parse_fields(&body_tokens)),
        "enum" => Body::Enum(parse_variants(&body_tokens)),
        other => panic!("serde_derive shim: cannot derive for `{other}` items"),
    };
    if let (Some(_), Body::Enum(variants)) = (&attrs.tag, &body) {
        if let Some(unit) = variants.iter().find(|v| v.fields.is_none()) {
            panic!(
                "serde_derive shim: unit variant `{}` in internally tagged `{name}`",
                unit.name
            );
        }
    }
    Item { name, attrs, body }
}

fn parse_attrs(tokens: &[TokenTree], i: &mut usize) -> SerdeAttrs {
    let mut attrs = SerdeAttrs::default();
    while let Some(TokenTree::Punct(p)) = tokens.get(*i) {
        if p.as_char() != '#' {
            break;
        }
        *i += 1;
        let group = match tokens.get(*i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => g.stream(),
            other => panic!("serde_derive shim: malformed attribute, got {other:?}"),
        };
        *i += 1;
        let inner: Vec<TokenTree> = group.into_iter().collect();
        if let Some(TokenTree::Ident(id)) = inner.first() {
            if id.to_string() == "serde" {
                if let Some(TokenTree::Group(args)) = inner.get(1) {
                    parse_serde_args(&args.stream(), &mut attrs);
                }
            }
        }
    }
    attrs
}

fn parse_serde_args(stream: &TokenStream, attrs: &mut SerdeAttrs) {
    let tokens: Vec<TokenTree> = stream.clone().into_iter().collect();
    let mut i = 0;
    while i < tokens.len() {
        let key = expect_ident(&tokens, &mut i);
        let mut value = None;
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            i += 1;
            match tokens.get(i) {
                Some(TokenTree::Literal(lit)) => {
                    value = Some(lit.to_string().trim_matches('"').to_string());
                    i += 1;
                }
                other => {
                    panic!("serde_derive shim: expected literal after `{key} =`, got {other:?}")
                }
            }
        }
        match (key.as_str(), value) {
            ("default", None) => attrs.default = true,
            ("default", Some(path)) => attrs.default_path = Some(path),
            ("skip_serializing_if", Some(path)) => attrs.skip_if = Some(path),
            ("tag", Some(tag)) => attrs.tag = Some(tag),
            ("rename_all", Some(rule)) if rule == "snake_case" => attrs.snake_case = true,
            (other, value) => {
                panic!("serde_derive shim: unsupported serde attribute `{other}` {value:?}")
            }
        }
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
    }
}

fn parse_fields(tokens: &[TokenTree]) -> Vec<Field> {
    let mut i = 0;
    let mut fields = Vec::new();
    while i < tokens.len() {
        let attrs = parse_attrs(tokens, &mut i);
        skip_visibility(tokens, &mut i);
        let name = expect_ident(tokens, &mut i);
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde_derive shim: expected `:` after field `{name}`, got {other:?}"),
        }
        // Skip the type: everything until a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(Field { name, attrs });
    }
    fields
}

fn parse_variants(tokens: &[TokenTree]) -> Vec<Variant> {
    let mut i = 0;
    let mut variants = Vec::new();
    while i < tokens.len() {
        parse_attrs(tokens, &mut i);
        let name = expect_ident(tokens, &mut i);
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                i += 1;
                Some(parse_fields(&inner))
            }
            Some(TokenTree::Group(_)) => {
                panic!("serde_derive shim: tuple variant `{name}` is not supported")
            }
            _ => None,
        };
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push(Variant { name, fields });
    }
    variants
}

fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if matches!(tokens.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

fn expect_ident(tokens: &[TokenTree], i: &mut usize) -> String {
    match tokens.get(*i) {
        Some(TokenTree::Ident(id)) => {
            *i += 1;
            id.to_string()
        }
        other => panic!("serde_derive shim: expected identifier, got {other:?}"),
    }
}

/// A variant's name on the wire: as written, or `snake_case`d.
fn variant_key(name: &str, snake_case: bool) -> String {
    if !snake_case {
        return name.to_string();
    }
    let mut out = String::new();
    for (i, ch) in name.chars().enumerate() {
        if ch.is_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.extend(ch.to_lowercase());
        } else {
            out.push(ch);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

/// Derives the shim `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let body = match &item.body {
        Body::Struct(fields) => {
            let mut code =
                String::from("let mut __m: Vec<(String, ::serde::Value)> = Vec::new();\n");
            for f in fields {
                code.push_str(&serialize_field(f, &format!("&self.{}", f.name)));
            }
            code.push_str("::serde::Value::Map(__m)\n");
            code
        }
        Body::Enum(variants) => serialize_enum(&item, variants),
    };
    let out = format!(
        "#[automatically_derived]\n\
         #[allow(clippy::all, unused_mut, unused_variables)]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n\
         }}\n",
        name = item.name,
    );
    out.parse()
        .expect("serde_derive shim: generated Serialize impl parses")
}

fn serialize_field(f: &Field, access: &str) -> String {
    let push = format!(
        "__m.push((String::from(\"{key}\"), ::serde::Serialize::to_value({access})));\n",
        key = f.name,
    );
    match &f.attrs.skip_if {
        Some(path) => format!("if !{path}({access}) {{\n{push}}}\n"),
        None => push,
    }
}

fn serialize_enum(item: &Item, variants: &[Variant]) -> String {
    let mut arms = String::new();
    for v in variants {
        let key = variant_key(&v.name, item.attrs.snake_case);
        let Some(fields) = &v.fields else {
            arms.push_str(&format!(
                "{}::{} => ::serde::Value::Str(String::from(\"{key}\")),\n",
                item.name, v.name
            ));
            continue;
        };
        let bindings: Vec<String> = fields
            .iter()
            .map(|f| format!("{}: __f_{}", f.name, f.name))
            .collect();
        let mut body = String::from("let mut __m: Vec<(String, ::serde::Value)> = Vec::new();\n");
        if let Some(tag) = &item.attrs.tag {
            body.push_str(&format!(
                "__m.push((String::from(\"{tag}\"), ::serde::Value::Str(String::from(\"{key}\"))));\n"
            ));
        }
        for f in fields {
            body.push_str(&serialize_field(f, &format!("__f_{}", f.name)));
        }
        let inner = if item.attrs.tag.is_some() {
            "::serde::Value::Map(__m)".to_string()
        } else {
            format!(
                "::serde::Value::Map(vec![(String::from(\"{key}\"), ::serde::Value::Map(__m))])"
            )
        };
        arms.push_str(&format!(
            "{}::{} {{ {} }} => {{\n{body}{inner}\n}}\n",
            item.name,
            v.name,
            bindings.join(", ")
        ));
    }
    format!("match self {{\n{arms}}}\n")
}

/// Derives the shim `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let body = match &item.body {
        Body::Struct(fields) => format!(
            "let __m = __v.as_map().ok_or_else(|| ::serde::Error::expected(\"object\", __v))?;\n\
             ::std::result::Result::Ok({} {{\n{}}})\n",
            item.name,
            deserialize_fields(fields)
        ),
        Body::Enum(variants) => deserialize_enum(&item, variants),
    };
    let out = format!(
        "#[automatically_derived]\n\
         #[allow(clippy::all, unused_variables)]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                 {body}\n\
             }}\n\
         }}\n",
        name = item.name,
    );
    out.parse()
        .expect("serde_derive shim: generated Deserialize impl parses")
}

/// Emits `name: <expr>,` initializers reading each field from the map `__m`.
fn deserialize_fields(fields: &[Field]) -> String {
    let mut code = String::new();
    for f in fields {
        let name = &f.name;
        let missing = if let Some(path) = &f.attrs.default_path {
            format!("{path}()")
        } else if f.attrs.default {
            "::std::default::Default::default()".to_string()
        } else {
            format!(
                "return ::std::result::Result::Err(::serde::Error::custom(\
                 \"missing field `{name}`\"))"
            )
        };
        code.push_str(&format!(
            "{name}: match ::serde::value_get(__m, \"{name}\") {{\n\
                 ::std::option::Option::Some(__fv) => ::serde::Deserialize::from_value(__fv)?,\n\
                 ::std::option::Option::None => {missing},\n\
             }},\n"
        ));
    }
    code
}

fn deserialize_enum(item: &Item, variants: &[Variant]) -> String {
    let unknown = "__other => ::std::result::Result::Err(::serde::Error::custom(\
                   format!(\"unknown variant `{}`\", __other))),\n";
    // A struct variant reads its fields from `__m`: the tagged map itself,
    // or the one entry's value of an externally tagged map.
    let fields_map = if item.attrs.tag.is_some() {
        ""
    } else {
        "let __m = __inner.as_map().ok_or_else(|| ::serde::Error::expected(\"object\", __inner))?;\n"
    };
    let mut str_arms = String::new();
    let mut map_arms = String::new();
    for v in variants {
        let key = variant_key(&v.name, item.attrs.snake_case);
        match &v.fields {
            // Only externally tagged enums have unit variants (see
            // `parse_item`).
            None => str_arms.push_str(&format!(
                "\"{key}\" => ::std::result::Result::Ok({}::{}),\n",
                item.name, v.name
            )),
            Some(fields) => map_arms.push_str(&format!(
                "\"{key}\" => {{\n{fields_map}::std::result::Result::Ok({}::{} {{\n{}}})\n}}\n",
                item.name,
                v.name,
                deserialize_fields(fields)
            )),
        }
    }
    if let Some(tag) = &item.attrs.tag {
        // Internally tagged: read the tag key, then the variant's fields
        // from the same map.
        format!(
            "let __m = __v.as_map().ok_or_else(|| ::serde::Error::expected(\"object\", __v))?;\n\
             let __tag = ::serde::value_get(__m, \"{tag}\")\
                 .ok_or_else(|| ::serde::Error::custom(\"missing tag field `{tag}`\"))?\
                 .as_str()\
                 .ok_or_else(|| ::serde::Error::custom(\"tag field `{tag}` must be a string\"))?;\n\
             match __tag {{\n{map_arms}{unknown}}}\n"
        )
    } else {
        format!(
            "match __v {{\n\
                 ::serde::Value::Str(__s) => match __s.as_str() {{\n{str_arms}{unknown}}},\n\
                 ::serde::Value::Map(__map) if __map.len() == 1 => {{\n\
                     let (__k, __inner) = &__map[0];\n\
                     match __k.as_str() {{\n{map_arms}{unknown}}}\n\
                 }}\n\
                 __other => ::std::result::Result::Err(::serde::Error::expected(\
                     \"enum representation\", __other)),\n\
             }}\n"
        )
    }
}
