#include "config.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "logging.hh"

namespace holdcsim {

namespace {

std::string
strip(const std::string &s)
{
    auto begin = s.find_first_not_of(" \t\r\n");
    if (begin == std::string::npos)
        return "";
    auto end = s.find_last_not_of(" \t\r\n");
    return s.substr(begin, end - begin + 1);
}

std::string
lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return s;
}

} // namespace

Config
Config::parse(std::istream &in, const std::string &origin)
{
    Config cfg;
    std::string line;
    std::string section;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        // Strip comments (';' or '#').
        auto comment = line.find_first_of(";#");
        if (comment != std::string::npos)
            line.erase(comment);
        line = strip(line);
        if (line.empty())
            continue;
        if (line.front() == '[') {
            if (line.back() != ']')
                fatal(origin, ":", lineno, ": unterminated section");
            section = strip(line.substr(1, line.size() - 2));
            continue;
        }
        auto eq = line.find('=');
        if (eq == std::string::npos)
            fatal(origin, ":", lineno, ": expected key = value, got '",
                  line, "'");
        std::string key = strip(line.substr(0, eq));
        std::string value = strip(line.substr(eq + 1));
        if (key.empty())
            fatal(origin, ":", lineno, ": empty key");
        if (!section.empty())
            key = section + "." + key;
        cfg._values[key] = Entry{value, origin, lineno};
    }
    return cfg;
}

Config
Config::parseString(const std::string &text)
{
    std::istringstream in(text);
    return parse(in, "<string>");
}

Config
Config::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open config file '", path, "'");
    return parse(in, path);
}

bool
Config::has(const std::string &key) const
{
    return _values.count(key) != 0;
}

void
Config::set(const std::string &key, const std::string &value)
{
    _values[key] = Entry{value, "", 0};
}

std::string
Config::origin(const std::string &key) const
{
    auto it = _values.find(key);
    if (it == _values.end() || it->second.file.empty())
        return "";
    return it->second.file + ":" + std::to_string(it->second.line);
}

std::string
Config::locate(const std::string &key) const
{
    std::string o = origin(key);
    return o.empty() ? "" : " (" + o + ")";
}

std::string
Config::getString(const std::string &key) const
{
    auto it = _values.find(key);
    if (it == _values.end())
        fatal("missing config key '", key, "'");
    return it->second.value;
}

std::string
Config::getString(const std::string &key,
                  const std::string &fallback) const
{
    auto it = _values.find(key);
    return it == _values.end() ? fallback : it->second.value;
}

std::int64_t
Config::getInt(const std::string &key) const
{
    std::string v = getString(key);
    try {
        std::size_t pos = 0;
        std::int64_t result = std::stoll(v, &pos);
        if (pos != v.size())
            fatal("config key '", key, "'", locate(key),
                  ": trailing junk in '", v, "'");
        return result;
    } catch (const FatalError &) {
        throw;
    } catch (const std::exception &) {
        fatal("config key '", key, "'", locate(key), ": '", v,
              "' is not an integer");
    }
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t fallback) const
{
    return has(key) ? getInt(key) : fallback;
}

double
Config::getDouble(const std::string &key) const
{
    std::string v = getString(key);
    try {
        std::size_t pos = 0;
        double result = std::stod(v, &pos);
        if (pos != v.size())
            fatal("config key '", key, "'", locate(key),
                  ": trailing junk in '", v, "'");
        return result;
    } catch (const FatalError &) {
        throw;
    } catch (const std::exception &) {
        fatal("config key '", key, "'", locate(key), ": '", v,
              "' is not a number");
    }
}

double
Config::getDouble(const std::string &key, double fallback) const
{
    return has(key) ? getDouble(key) : fallback;
}

Tick
Config::getDuration(const std::string &key, Tick unit) const
{
    const double ticks = getDouble(key) * static_cast<double>(unit);
    // 2^64 is the first double a Tick cannot hold; NaN fails both
    // comparisons.
    if (!(ticks >= 0.0 && ticks < 18446744073709551616.0))
        fatal("config key '", key, "'", locate(key), ": '",
              getString(key),
              "' is not a duration (must be finite, non-negative and "
              "below 2^64 ns)");
    return static_cast<Tick>(ticks);
}

Tick
Config::getDuration(const std::string &key, Tick unit, Tick fallback) const
{
    return has(key) ? getDuration(key, unit) : fallback;
}

bool
Config::getBool(const std::string &key) const
{
    std::string v = lower(getString(key));
    if (v == "true" || v == "yes" || v == "on" || v == "1")
        return true;
    if (v == "false" || v == "no" || v == "off" || v == "0")
        return false;
    fatal("config key '", key, "'", locate(key), ": '", v,
          "' is not a boolean");
}

bool
Config::getBool(const std::string &key, bool fallback) const
{
    return has(key) ? getBool(key) : fallback;
}

std::vector<std::string>
Config::keys() const
{
    std::vector<std::string> out;
    out.reserve(_values.size());
    for (const auto &[key, value] : _values)
        out.push_back(key);
    return out;
}

} // namespace holdcsim
